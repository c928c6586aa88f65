//! Flow arrivals and offered-load arithmetic.
//!
//! The paper sets the *average load* as a fraction of the network capacity
//! (the aggregate host access bandwidth) and draws flow inter-arrival times
//! from a log-normal distribution with σ = 2 whose mean matches that load.
//! One type describes the background arrivals, [`ArrivalShape`]: the gap
//! distribution (log-normal, Poisson or bursty on/off) without its mean,
//! which [`mean_interarrival_secs`] derives from the load and which its
//! `sample_gap` / `arrivals_until` take as an argument. [`IncastSchedule`]
//! spaces incast events (periodic, or log-normal gaps at the same mean).

use bfc_sim::{SimDuration, SimRng, SimTime};

/// The mean inter-arrival time (seconds) between flows across the whole
/// fabric needed to offer `load` (0..1) of the aggregate host bandwidth,
/// given the mean flow size.
pub fn mean_interarrival_secs(
    load: f64,
    num_hosts: usize,
    host_gbps: f64,
    mean_flow_bytes: f64,
) -> f64 {
    assert!(load > 0.0 && load <= 1.5, "load {load} out of range");
    assert!(num_hosts > 0 && host_gbps > 0.0 && mean_flow_bytes > 0.0);
    let aggregate_bps = num_hosts as f64 * host_gbps * 1e9;
    let offered_bps = load * aggregate_bps;
    mean_flow_bytes * 8.0 / offered_bps
}

/// The shape of the background inter-arrival gaps, independent of their
/// mean: what [`crate::TraceParams`] carries. Trace synthesis turns the
/// requested load into a mean gap ([`mean_interarrival_secs`]) and draws at
/// that mean with [`ArrivalShape::sample_gap`] / [`ArrivalShape::arrivals_until`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Log-normal gaps with the given shape parameter (paper: σ = 2), scaled
    /// so the mean gap matches the requested mean.
    LogNormal {
        /// Shape parameter of the underlying normal.
        sigma: f64,
    },
    /// Memoryless Poisson arrivals (exponential gaps).
    Poisson,
    /// Markov-modulated on/off arrivals: bursts of closely spaced flows
    /// separated by long silences. Burst lengths are geometric with mean
    /// `mean_burst_len`; within a burst, gaps are exponential with mean
    /// `mean · on_gap_fraction`, and each burst boundary inserts an
    /// exponential off period sized so the overall mean gap is exactly the
    /// requested mean — the offered load matches the smoother shapes, only
    /// the short-timescale variance differs.
    Bursty {
        /// Expected number of arrivals per on-period (≥ 1).
        mean_burst_len: f64,
        /// Fraction of the mean gap attributable to in-burst spacing, in
        /// (0, 1]; the remaining `1 - on_gap_fraction` is spent silent.
        on_gap_fraction: f64,
    },
}

impl ArrivalShape {
    /// The paper's default: log-normal with σ = 2.
    pub fn paper_default() -> Self {
        ArrivalShape::LogNormal { sigma: 2.0 }
    }

    /// The default bursty configuration (20 flows per burst, 10% duty cycle).
    pub fn bursty_default() -> Self {
        ArrivalShape::Bursty {
            mean_burst_len: 20.0,
            on_gap_fraction: 0.1,
        }
    }

    /// Draws one inter-arrival gap of mean `mean_secs`.
    pub fn sample_gap(&self, mean_secs: f64, rng: &mut SimRng) -> SimDuration {
        let secs = match *self {
            ArrivalShape::LogNormal { sigma } => rng.lognormal_with_mean(mean_secs, sigma),
            ArrivalShape::Poisson => rng.exponential(mean_secs),
            ArrivalShape::Bursty {
                mean_burst_len,
                on_gap_fraction,
            } => {
                debug_assert!(mean_burst_len >= 1.0, "mean_burst_len must be >= 1");
                debug_assert!(
                    on_gap_fraction > 0.0 && on_gap_fraction <= 1.0,
                    "on_gap_fraction must be in (0, 1]"
                );
                // In-burst gap, plus — at a geometric burst boundary — an
                // off period whose mean restores the overall target:
                //   E[gap] = f·m + (1/B)·(1-f)·m·B = m.
                let mut secs = rng.exponential(mean_secs * on_gap_fraction);
                let off_mean = mean_secs * (1.0 - on_gap_fraction) * mean_burst_len;
                if off_mean > 0.0 && rng.chance(1.0 / mean_burst_len) {
                    secs += rng.exponential(off_mean);
                }
                secs
            }
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Arrival instants until `horizon`, with gaps of mean `mean_secs`.
    pub fn arrivals_until(
        &self,
        mean_secs: f64,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.sample_gap(mean_secs, rng);
        while t <= horizon {
            out.push(t);
            t += self.sample_gap(mean_secs, rng);
        }
        out
    }
}

/// How incast *events* are spaced in time. The paper fires one incast every
/// fixed period; `LogNormalGaps` draws the inter-event gaps from a log-normal
/// distribution with the same mean instead, so events cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncastSchedule {
    /// One event every `mean_gap`, exactly (the paper's setup).
    Periodic,
    /// Log-normal inter-event gaps with the given shape parameter, scaled so
    /// the mean gap (and thus the incast offered load) is unchanged.
    LogNormalGaps {
        /// Shape parameter of the underlying normal.
        sigma: f64,
    },
}

impl IncastSchedule {
    /// The paper's default: strictly periodic events.
    pub fn paper_default() -> Self {
        IncastSchedule::Periodic
    }

    /// Event instants until `horizon`, starting one gap after time zero.
    /// `Periodic` consumes no randomness; `LogNormalGaps` draws every gap
    /// from `rng`. `mean_gap` must be positive — a zero gap would mean an
    /// unbounded number of events.
    pub fn events_until(
        &self,
        mean_gap: SimDuration,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Vec<SimTime> {
        assert!(!mean_gap.is_zero(), "event mean_gap must be positive");
        let mut out = Vec::new();
        match *self {
            IncastSchedule::Periodic => {
                let mut t = SimTime::ZERO + mean_gap;
                while t <= horizon {
                    out.push(t);
                    t += mean_gap;
                }
            }
            IncastSchedule::LogNormalGaps { sigma } => {
                let mean_secs = mean_gap.as_secs_f64();
                let mut t = SimTime::ZERO
                    + SimDuration::from_secs_f64(rng.lognormal_with_mean(mean_secs, sigma));
                while t <= horizon {
                    out.push(t);
                    t += SimDuration::from_secs_f64(rng.lognormal_with_mean(mean_secs, sigma));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interarrival_matches_load_arithmetic() {
        // 64 hosts * 100 Gbps = 6.4 Tbps; 65% of that is 4.16 Tbps. With a
        // 10 KB mean flow, arrivals must average 80 kb / 4.16 Tbps ≈ 19.2 ns.
        let mean = mean_interarrival_secs(0.65, 64, 100.0, 10_000.0);
        assert!((mean - 1.923e-8).abs() < 1e-10, "got {mean}");
        // Halving the load doubles the gap.
        assert!((mean_interarrival_secs(0.325, 64, 100.0, 10_000.0) / mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_rate_approximates_target() {
        let mean = 2e-6;
        for shape in [
            ArrivalShape::Poisson,
            ArrivalShape::paper_default(),
            ArrivalShape::bursty_default(),
        ] {
            let mut rng = SimRng::new(11);
            let horizon = SimTime::ZERO + SimDuration::from_millis(20);
            let arrivals = shape.arrivals_until(mean, horizon, &mut rng);
            let expected = 20e-3 / mean;
            let got = arrivals.len() as f64;
            assert!(
                (got - expected).abs() / expected < 0.25,
                "{shape:?}: expected ≈{expected}, got {got}"
            );
            // Arrivals are sorted.
            for w in arrivals.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn lognormal_gaps_are_burstier_than_poisson() {
        // With σ = 2 the gap distribution has a much heavier tail: its median
        // is far below its mean, producing the bursts the paper relies on.
        let mut rng = SimRng::new(3);
        let shape = ArrivalShape::paper_default();
        let mut gaps: Vec<f64> = (0..20_000)
            .map(|_| shape.sample_gap(1e-6, &mut rng).as_secs_f64())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = gaps[gaps.len() / 2];
        assert!(
            median < 0.3e-6,
            "median {median} should sit well below the 1 us mean"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_load_rejected() {
        let _ = mean_interarrival_secs(0.0, 64, 100.0, 10_000.0);
    }

    #[test]
    fn bursty_gaps_cluster_into_bursts() {
        // Most gaps sit well below the mean (in-burst spacing), while the
        // occasional off period is far above it — the gap distribution is
        // bimodal in a way neither Poisson nor log-normal is.
        let mut rng = SimRng::new(17);
        let mean = 1e-6;
        let shape = ArrivalShape::bursty_default();
        let gaps: Vec<f64> = (0..50_000)
            .map(|_| shape.sample_gap(mean, &mut rng).as_secs_f64())
            .collect();
        let measured_mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (measured_mean - mean).abs() / mean < 0.1,
            "mean {measured_mean} should match {mean}"
        );
        let short = gaps.iter().filter(|&&g| g < 0.5 * mean).count() as f64 / gaps.len() as f64;
        let long = gaps.iter().filter(|&&g| g > 4.0 * mean).count() as f64 / gaps.len() as f64;
        assert!(short > 0.8, "in-burst gaps dominate, got {short}");
        assert!(long > 0.02, "off periods exist, got {long}");
    }

    #[test]
    fn incast_schedules_hit_the_target_event_rate() {
        let mean_gap = SimDuration::from_micros(100);
        let horizon = SimTime::ZERO + SimDuration::from_millis(50);
        let mut rng = SimRng::new(23);
        let periodic = IncastSchedule::Periodic.events_until(mean_gap, horizon, &mut rng);
        assert_eq!(periodic.len(), 500);
        assert_eq!(periodic[0], SimTime::ZERO + mean_gap);
        // Periodic consumed no randomness; a fresh rng produces the same
        // log-normal schedule as a used-for-periodic one would.
        let clustered =
            IncastSchedule::LogNormalGaps { sigma: 1.0 }.events_until(mean_gap, horizon, &mut rng);
        let expected = 500.0;
        assert!(
            (clustered.len() as f64 - expected).abs() / expected < 0.3,
            "expected ≈{expected} events, got {}",
            clustered.len()
        );
        for w in clustered.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
