//! Recovery metrics for experiments with network dynamics.
//!
//! When a fault schedule perturbs the fabric (link down/up, degradation,
//! flapping), four quantities summarize how well a scheme rode it out:
//!
//! * **blackholed packets** — data packets lost to the dynamics themselves:
//!   flushed from a dead egress, dropped in flight on a severed cable, or
//!   arriving at a switch with no route to the destination;
//! * **reroutes** — how many times routing re-converged (one per
//!   topology-changing event, i.e. link down/up; rate changes don't
//!   reroute);
//! * **time to recover** — how long after the *last* fault event the
//!   fabric-wide goodput climbed back to the pre-fault baseline;
//! * **goodput dip depth** — how far goodput fell below the baseline during
//!   the disturbed window (0 = no dip, 1 = complete stall).
//!
//! The baseline is the mean per-sample goodput over the samples strictly
//! before the first fault, and "recovered" means a per-sample goodput of at
//! least [`RECOVERY_FRACTION`] of that baseline. [`recovery_metrics`] computes
//! all four from plain values — the blackhole count the run summed, the fault
//! schedule's events it applied and its periodic samples (its
//! [`GoodputSeries`]) — so they are bit-identical across thread counts like
//! every other result.

use bfc_net::dynamics::{FaultEvent, LinkAction};
use bfc_sim::{SimDuration, SimTime};

use crate::series::GoodputSeries;

/// The recovery summary of one experiment run. For a run without dynamics
/// every field is zero / `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryMetrics {
    /// Data packets lost to network dynamics (dead-egress flushes, in-flight
    /// drops on severed cables, unroutable arrivals).
    pub blackholed_packets: u64,
    /// Number of routing re-convergences (one per link down/up event; rate
    /// changes do not alter the topology and so do not reroute).
    pub reroutes: u64,
    /// Fault events applied during the run.
    pub faults: usize,
    /// Time from the last fault event until goodput first returned to the
    /// pre-fault baseline. `None` if there were no faults, no pre-fault
    /// baseline existed, or goodput never recovered before the run ended.
    pub time_to_recover: Option<SimDuration>,
    /// `1 - min(goodput during the disturbed window) / baseline`, clamped to
    /// `[0, 1]`. Zero when no baseline exists.
    pub goodput_dip_depth: f64,
}

/// A sample counts as "recovered" at this fraction of the pre-fault baseline
/// goodput.
pub const RECOVERY_FRACTION: f64 = 0.9;

/// The pre-fault baseline: mean per-tick goodput over the ticks strictly
/// before `first`. Returns `None` when no such tick exists (fault at t=0, or
/// before the first sample window closed) or when the mean is zero — both
/// would otherwise divide by zero downstream and poison `goodput_dip_depth`
/// with NaN/inf and `time_to_recover` with a threshold every idle tick
/// trivially meets.
fn baseline(goodput: &GoodputSeries, first: SimTime) -> Option<f64> {
    let mut sum = 0u64;
    let mut count = 0u64;
    for (t, d) in goodput.per_tick() {
        if t < first {
            sum += d;
            count += 1;
        }
    }
    let baseline = (count > 0).then(|| sum as f64 / count as f64)?;
    (baseline > 0.0).then_some(baseline)
}

/// Distills a finished run into its [`RecoveryMetrics`], given the data
/// packets it lost to its dynamics (`blackholed`), the fault events it
/// applied (`applied`, in time order: each anchors the time-to-recover / dip
/// windows, and each link down or up is one routing re-convergence — rate
/// changes disturb goodput but do not change the topology) and its
/// fabric-wide goodput series.
///
/// When no pre-fault baseline exists (see `baseline`), `time_to_recover`
/// is explicitly `None` and `goodput_dip_depth` explicitly `0.0` —
/// "unmeasurable", never NaN and never a bogus instant-recovery reading.
pub fn recovery_metrics(
    blackholed: u64,
    applied: &[FaultEvent],
    goodput: &GoodputSeries,
) -> RecoveryMetrics {
    let reroutes = applied
        .iter()
        .filter(|e| !matches!(e.action, LinkAction::SetRate { .. }))
        .count();
    let mut metrics = RecoveryMetrics {
        blackholed_packets: blackholed,
        reroutes: reroutes as u64,
        faults: applied.len(),
        time_to_recover: None,
        goodput_dip_depth: 0.0,
    };
    let (Some(first), Some(last)) = (applied.first(), applied.last()) else {
        return metrics;
    };
    let (first, last) = (first.at, last.at);
    let Some(baseline) = baseline(goodput, first) else {
        return metrics;
    };

    // A tick's goodput covers the window since the *previous* tick, so the
    // first tick at/after the fault mostly counts pre-fault bytes. Only
    // ticks whose whole window lies after the last fault are eligible as
    // recovery evidence.
    let mut window_start = SimTime::ZERO;
    let mut recovered_at = None;
    for (t, d) in goodput.per_tick() {
        if window_start >= last && d as f64 >= RECOVERY_FRACTION * baseline {
            recovered_at = Some(t);
            break;
        }
        window_start = t;
    }
    metrics.time_to_recover = recovered_at.map(|t| t.saturating_since(last));

    // The disturbed window: from the first fault until recovery (or the end
    // of the run if goodput never came back).
    let window_end = recovered_at.unwrap_or(SimTime::MAX);
    let min_goodput = goodput
        .per_tick()
        .filter(|(t, _)| *t >= first && *t <= window_end)
        .map(|(_, d)| d)
        .min();
    if let Some(min) = min_goodput {
        metrics.goodput_dip_depth = (1.0 - min as f64 / baseline).clamp(0.0, 1.0);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use bfc_net::types::NodeId;

    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// A link event at `at` µs: down when `reroutes`, else a rate change.
    fn fault(at: u64, reroutes: bool) -> FaultEvent {
        let (a, b) = (NodeId(0), NodeId(1));
        let action = if reroutes {
            LinkAction::Down { a, b }
        } else {
            LinkAction::SetRate { a, b, gbps: 10.0 }
        };
        FaultEvent { at: us(at), action }
    }

    #[test]
    fn no_faults_yield_empty_metrics() {
        let mut g = GoodputSeries::new();
        g.record(us(10), 1_000);
        g.record(us(20), 2_000);
        let m = recovery_metrics(0, &[], &g);
        assert_eq!(m, RecoveryMetrics::default());
    }

    #[test]
    fn dip_and_recovery_are_measured_from_samples() {
        let mut g = GoodputSeries::new();
        // Steady 1000 B per tick before the fault.
        let mut cumulative = 0;
        for i in 1..=4u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        // Goodput collapses to 100 B, then recovers to 950 B at t=80.
        for (at, delta) in [(50, 100u64), (60, 100), (70, 500), (80, 950), (90, 1_000)] {
            cumulative += delta;
            g.record(us(at), cumulative);
        }
        let m = recovery_metrics(7, &[fault(45, true)], &g);
        assert_eq!(m.blackholed_packets, 7);
        assert_eq!(m.reroutes, 1);
        assert_eq!(m.faults, 1);
        // Recovery threshold is 900 B: first met at t=80, 35 us after the fault.
        assert_eq!(m.time_to_recover, Some(SimDuration::from_micros(35)));
        assert!(
            (m.goodput_dip_depth - 0.9).abs() < 1e-9,
            "dip {}",
            m.goodput_dip_depth
        );
    }

    #[test]
    fn unrecovered_runs_report_none() {
        let mut g = GoodputSeries::new();
        g.record(us(10), 1_000);
        g.record(us(20), 1_050);
        g.record(us(30), 1_100);
        let m = recovery_metrics(0, &[fault(15, true)], &g);
        assert_eq!(m.time_to_recover, None);
        assert!(m.goodput_dip_depth > 0.9);
    }

    #[test]
    fn fault_before_any_sample_has_no_baseline() {
        let mut g = GoodputSeries::new();
        g.record(us(10), 1_000);
        let m = recovery_metrics(0, &[fault(1, false)], &g);
        assert_eq!(m.time_to_recover, None);
        assert_eq!(m.goodput_dip_depth, 0.0);
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn fault_at_time_zero_is_unmeasurable_not_nan() {
        // A fault at t=0 leaves zero samples strictly before it: no baseline
        // exists, so both metrics must take their explicit "unmeasurable"
        // values rather than dividing by zero.
        let mut g = GoodputSeries::new();
        let mut cumulative = 0;
        for i in 1..=3u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        let m = recovery_metrics(0, &[fault(0, true)], &g);
        assert_eq!(m.time_to_recover, None);
        assert_eq!(m.goodput_dip_depth, 0.0);
        assert!(m.goodput_dip_depth.is_finite());
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn fault_before_first_window_closes_is_unmeasurable() {
        // The fault lands after t=0 but before the first sample window has
        // closed; the t=10 sample straddles it, so it is not baseline
        // evidence and the metrics stay at their explicit defaults.
        let mut g = GoodputSeries::new();
        let mut cumulative = 0;
        for i in 1..=3u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        let m = recovery_metrics(0, &[fault(5, true)], &g);
        assert_eq!(m.time_to_recover, None);
        assert_eq!(m.goodput_dip_depth, 0.0);
    }

    #[test]
    fn all_idle_pre_fault_samples_yield_no_baseline() {
        // Pre-fault samples exist but carry zero bytes: a zero baseline would
        // make every idle sample "recovered" instantly and the dip 0/0 = NaN.
        // It must instead count as no baseline at all.
        let mut g = GoodputSeries::new();
        g.record(us(10), 0);
        g.record(us(20), 0);
        g.record(us(30), 0);
        g.record(us(40), 500);
        let m = recovery_metrics(0, &[fault(25, true)], &g);
        assert_eq!(m.time_to_recover, None);
        assert_eq!(m.goodput_dip_depth, 0.0);
        assert!(m.goodput_dip_depth.is_finite());
    }

    #[test]
    fn recovery_measured_from_last_fault_of_a_flap() {
        let mut g = GoodputSeries::new();
        let mut cumulative = 0;
        for i in 1..=3u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        cumulative += 100;
        g.record(us(40), cumulative);
        cumulative += 1_000;
        g.record(us(50), cumulative);
        cumulative += 1_000;
        g.record(us(60), cumulative);
        // Down at 35 µs, back up at 45 µs.
        let up = FaultEvent {
            at: us(45),
            action: LinkAction::Up {
                a: NodeId(0),
                b: NodeId(1),
            },
        };
        let m = recovery_metrics(0, &[fault(35, true), up], &g);
        assert_eq!(m.faults, 2);
        assert_eq!(m.reroutes, 2);
        // The t=50 sample's window (40..50) straddles the t=45 fault, so it
        // is not recovery evidence; the first clean window ends at t=60.
        assert_eq!(m.time_to_recover, Some(SimDuration::from_micros(15)));
    }

    #[test]
    fn straddling_sample_windows_do_not_count_as_recovery() {
        let mut g = GoodputSeries::new();
        let mut cumulative = 0;
        for i in 1..=4u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        // Fault at 49 µs, just before the next sample: that sample's delta is
        // almost entirely pre-fault traffic and must not count as recovery.
        cumulative += 990;
        g.record(us(50), cumulative);
        // Goodput is actually dead afterwards.
        g.record(us(60), cumulative);
        g.record(us(70), cumulative);
        let m = recovery_metrics(0, &[fault(49, true)], &g);
        assert_eq!(m.time_to_recover, None);
    }
}
