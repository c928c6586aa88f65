//! Flow-completion-time records and slowdown summaries.
//!
//! The headline metric of the paper is the **FCT slowdown**: a flow's
//! completion time divided by the best possible completion time for a flow
//! of the same size on an unloaded network. Figures 5, 7, 9 and 11–14 plot
//! the 99th-percentile slowdown per flow-size bucket; this module produces
//! exactly those series.

use bfc_net::types::FlowId;
use bfc_sim::SimDuration;

use crate::stats::{mean, percentile};

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctRecord {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes transferred.
    pub size_bytes: u64,
    /// Measured completion time (start at the sender to last byte at the
    /// receiver).
    pub fct: SimDuration,
    /// Best-possible completion time on an idle network.
    pub ideal_fct: SimDuration,
    /// True if the flow was part of an incast event (excluded from the
    /// headline slowdown figures, as in the paper).
    pub is_incast: bool,
}

impl FctRecord {
    /// FCT slowdown: the completion time over the ideal one. At least 1 for
    /// every record a run produces, since no flow beats its ideal FCT (the
    /// run's assembly asserts it); nothing here clamps it.
    pub fn slowdown(&self) -> f64 {
        let ideal = self.ideal_fct.as_secs_f64().max(1e-12);
        self.fct.as_secs_f64() / ideal
    }
}

/// A flow-size bucket boundary set (log-spaced, in bytes), matching the
/// "Flow Size (KB)" axis of the paper's FCT figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeBucket {
    /// Inclusive lower bound in bytes.
    pub lo: u64,
    /// Exclusive upper bound in bytes.
    pub hi: u64,
}

impl SizeBucket {
    /// Human-readable label (e.g. `"1KB-3KB"`; `">3MB"` for the open-ended
    /// last bucket).
    pub fn label(&self) -> String {
        fn fmt(b: u64) -> String {
            if b >= 1_000_000 {
                format!("{}MB", b / 1_000_000)
            } else if b >= 1_000 {
                format!("{}KB", b / 1_000)
            } else {
                format!("{b}B")
            }
        }
        if self.hi == u64::MAX {
            return format!(">{}", fmt(self.lo));
        }
        format!("{}-{}", fmt(self.lo), fmt(self.hi))
    }

    /// The default log-spaced buckets used by the figures: <1 KB up to 10 MB.
    pub fn defaults() -> Vec<SizeBucket> {
        let edges: [u64; 10] = [
            0,
            1_000,
            3_000,
            10_000,
            30_000,
            100_000,
            300_000,
            1_000_000,
            3_000_000,
            u64::MAX,
        ];
        edges
            .windows(2)
            .map(|w| SizeBucket { lo: w[0], hi: w[1] })
            .collect()
    }

    /// True if `size` falls in this bucket.
    pub fn contains(&self, size: u64) -> bool {
        size >= self.lo && size < self.hi
    }

    /// Geometric midpoint used as the x-coordinate when plotting.
    pub fn midpoint(&self) -> f64 {
        let hi = if self.hi == u64::MAX {
            10_000_000
        } else {
            self.hi
        };
        ((self.lo.max(1) as f64) * (hi as f64)).sqrt()
    }
}

/// Slowdown statistics for one size bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSummary {
    /// The bucket.
    pub bucket: SizeBucket,
    /// Number of flows in the bucket.
    pub count: usize,
    /// Mean slowdown.
    pub mean: f64,
    /// Median slowdown.
    pub p50: f64,
    /// 95th-percentile slowdown.
    pub p95: f64,
    /// 99th-percentile slowdown (the paper's headline series).
    pub p99: f64,
}

/// A full per-size-bucket summary of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct FctSummary {
    /// Per-bucket statistics (buckets with no flows are omitted).
    pub buckets: Vec<BucketSummary>,
    /// Overall statistics across all (non-incast) flows.
    pub overall: Option<BucketSummary>,
}

impl FctSummary {
    /// Builds the summary from raw records, excluding incast flows (the paper
    /// only reports slowdowns of the regular traffic).
    pub fn from_records(records: &[FctRecord]) -> Self {
        Self::from_records_with_buckets(records, &SizeBucket::defaults())
    }

    /// Same as [`FctSummary::from_records`] but with caller-provided buckets.
    pub fn from_records_with_buckets(records: &[FctRecord], buckets: &[SizeBucket]) -> Self {
        let regular: Vec<&FctRecord> = records.iter().filter(|r| !r.is_incast).collect();
        let mut out = Vec::new();
        for &bucket in buckets {
            let slowdowns: Vec<f64> = regular
                .iter()
                .filter(|r| bucket.contains(r.size_bytes))
                .map(|r| r.slowdown())
                .collect();
            if slowdowns.is_empty() {
                continue;
            }
            out.push(BucketSummary {
                bucket,
                count: slowdowns.len(),
                mean: mean(&slowdowns).expect("non-empty"),
                p50: percentile(&slowdowns, 50.0).expect("non-empty"),
                p95: percentile(&slowdowns, 95.0).expect("non-empty"),
                p99: percentile(&slowdowns, 99.0).expect("non-empty"),
            });
        }
        let all: Vec<f64> = regular.iter().map(|r| r.slowdown()).collect();
        let overall = if all.is_empty() {
            None
        } else {
            Some(BucketSummary {
                bucket: SizeBucket {
                    lo: 0,
                    hi: u64::MAX,
                },
                count: all.len(),
                mean: mean(&all).expect("non-empty"),
                p50: percentile(&all, 50.0).expect("non-empty"),
                p95: percentile(&all, 95.0).expect("non-empty"),
                p99: percentile(&all, 99.0).expect("non-empty"),
            })
        };
        FctSummary {
            buckets: out,
            overall,
        }
    }

    /// The 99th-percentile slowdown series as `(bucket midpoint bytes, p99)`
    /// pairs — the y-values of the paper's FCT figures.
    pub fn p99_series(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .map(|b| (b.bucket.midpoint(), b.p99))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, fct_us: u64, ideal_us: u64, incast: bool) -> FctRecord {
        FctRecord {
            flow: FlowId(0),
            size_bytes: size,
            fct: SimDuration::from_micros(fct_us),
            ideal_fct: SimDuration::from_micros(ideal_us),
            is_incast: incast,
        }
    }

    #[test]
    fn slowdown_is_the_unclamped_ratio_to_the_ideal_fct() {
        assert_eq!(rec(1000, 10, 5, false).slowdown(), 2.0);
        assert_eq!(rec(1000, 5, 5, false).slowdown(), 1.0);
        // A record below its ideal reads below 1: the bound is asserted
        // where runs build records, not hidden here.
        let below = rec(1000, 4, 5, false).slowdown();
        assert!((below - 0.8).abs() < 1e-12, "{below}");
    }

    #[test]
    fn buckets_cover_all_sizes() {
        let buckets = SizeBucket::defaults();
        for size in [1u64, 999, 1_000, 54_321, 2_000_000, 50_000_000] {
            assert_eq!(
                buckets.iter().filter(|b| b.contains(size)).count(),
                1,
                "size {size} must fall in exactly one bucket"
            );
        }
        assert!(buckets[0].label().contains('B'));
        let labels: Vec<String> = buckets.iter().map(SizeBucket::label).collect();
        assert_eq!(labels[1], "1KB-3KB");
        assert_eq!(
            labels[8], ">3MB",
            "the open-ended bucket names no upper edge"
        );
        assert!(
            labels.iter().all(|l| l.len() <= 12),
            "labels fit the 12-wide columns"
        );
        assert!(buckets[3].midpoint() > buckets[2].midpoint());
    }

    #[test]
    fn summary_groups_by_size_and_excludes_incast() {
        let mut records = Vec::new();
        // 100 small flows with slowdown 2, two stragglers at slowdown 50.
        for i in 0..100 {
            let slow = if i < 2 { 500 } else { 20 };
            records.push(rec(500, slow, 10, false));
        }
        // Large flows with slowdown 4.
        for _ in 0..50 {
            records.push(rec(2_000_000, 400, 100, false));
        }
        // Incast flows with absurd slowdowns must not show up.
        for _ in 0..10 {
            records.push(rec(200_000, 100_000, 10, true));
        }
        let summary = FctSummary::from_records(&records);
        assert_eq!(summary.buckets.len(), 2);
        let small = &summary.buckets[0];
        assert_eq!(small.count, 100);
        assert_eq!(small.p50, 2.0);
        assert_eq!(small.p99, 50.0, "p99 catches the straggler");
        let big = &summary.buckets[1];
        assert_eq!(big.p99, 4.0);
        let overall = summary.overall.as_ref().expect("overall stats");
        assert_eq!(overall.count, 150);
        assert_eq!(summary.p99_series().len(), 2);
    }

    #[test]
    fn empty_records_produce_empty_summary() {
        let summary = FctSummary::from_records(&[]);
        assert!(summary.buckets.is_empty());
        assert!(summary.overall.is_none());
    }
}
