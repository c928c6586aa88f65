//! Time-series metrics — buffer occupancy samples and per-tick goodput, with
//! their cross-shard merges — and the two ratios the paper reports over a
//! whole run: link utilization and the PFC pause-time fraction.

use bfc_sim::{SimDuration, SimTime};

use crate::stats::percentile;

/// Periodic samples of switch buffer occupancy (one series covering every
/// switch of the fabric, as in the paper's shared-buffer CDFs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OccupancySeries {
    samples_bytes: Vec<f64>,
}

bfc_sim::snap_struct! { OccupancySeries { samples_bytes } }

impl OccupancySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        OccupancySeries::default()
    }

    /// Records one occupancy sample (bytes).
    pub fn record(&mut self, bytes: u64) {
        self.samples_bytes.push(bytes as f64);
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples_bytes
    }

    /// Reassembles per-shard occupancy series into the series one collector
    /// covering every switch would have recorded.
    ///
    /// Each part records its own switches — in global node order — at every
    /// tick, so part `p` contributes `parts[p].len() / ticks` consecutive
    /// values per tick. `owner` gives, for each global recording slot within
    /// one tick (i.e. for each switch in global node order), the index of
    /// the part that owns it. The merge walks every tick and pulls each
    /// slot's value from its owner's cursor: a pure reordering, bit-exact.
    pub fn merge_interleaved(parts: &[&OccupancySeries], owner: &[usize], ticks: usize) -> Self {
        let mut widths = vec![0usize; parts.len()];
        for &p in owner {
            widths[p] += 1;
        }
        for (p, part) in parts.iter().enumerate() {
            assert_eq!(
                part.len(),
                widths[p] * ticks,
                "part {p} must hold exactly its owned slots for every tick"
            );
        }
        // Owners record their slots in the same global order within each
        // tick, so each part is read front to back.
        let mut cursors: Vec<_> = parts.iter().map(|part| part.samples_bytes.iter()).collect();
        let mut samples_bytes = Vec::with_capacity(owner.len() * ticks);
        for _ in 0..ticks {
            for &p in owner {
                samples_bytes.push(*cursors[p].next().expect("lengths were checked"));
            }
        }
        OccupancySeries { samples_bytes }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_bytes.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_bytes.is_empty()
    }

    /// A percentile of occupancy in bytes (Fig. 8b uses the 99th).
    pub fn percentile_bytes(&self, p: f64) -> f64 {
        percentile(&self.samples_bytes, p).unwrap_or(0.0)
    }

    /// Maximum observed occupancy in bytes.
    pub fn max_bytes(&self) -> f64 {
        self.samples_bytes.iter().copied().fold(0.0, f64::max)
    }
}

/// Bytes delivered by each sample tick: `(instant, cumulative bytes)`. A
/// tick's goodput is its entry minus the one before ([`GoodputSeries::per_tick`];
/// the first is compared against 0). The one series behind both the recovery
/// metrics (baseline, dip, time to recover) and the livelock detector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoodputSeries {
    cumulative: Vec<(SimTime, u64)>,
}

bfc_sim::snap_struct! { GoodputSeries { cumulative } }

impl GoodputSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        GoodputSeries::default()
    }

    /// Records one tick: `cumulative_bytes` is the running total of bytes
    /// delivered to this series' receivers at `now`. Call at every sample
    /// tick, in time order.
    pub fn record(&mut self, now: SimTime, cumulative_bytes: u64) {
        self.cumulative.push((now, cumulative_bytes));
    }

    /// Each tick's goodput, in time order: `(instant, bytes delivered since
    /// the previous tick)`.
    pub fn per_tick(&self) -> impl DoubleEndedIterator<Item = (SimTime, u64)> + '_ {
        let c = &self.cumulative;
        (0..c.len()).map(move |i| {
            let before = if i == 0 { 0 } else { c[i - 1].1 };
            (c[i].0, c[i].1.saturating_sub(before))
        })
    }

    /// Merges per-shard series into the one a collector covering the whole
    /// fabric would have recorded. Shards sample in lockstep, so every part
    /// carries the same tick instants, and per-tick running totals (each
    /// shard's local receivers) sum to the fabric-wide total exactly (`u64`
    /// addition). The merge of one series is that series.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a GoodputSeries>) -> GoodputSeries {
        let mut parts = parts.into_iter();
        let mut merged = parts.next().cloned().unwrap_or_default();
        for part in parts {
            assert_eq!(
                part.cumulative.len(),
                merged.cumulative.len(),
                "shards sample in lockstep"
            );
            for ((at, total), &(t, c)) in merged.cumulative.iter_mut().zip(&part.cumulative) {
                debug_assert_eq!(*at, t, "shards must sample at identical instants");
                *total += c;
            }
        }
        merged
    }
}

/// Goodput divided by aggregate host capacity — the paper's network
/// utilization metric (Fig. 8a): `delivered_bytes` over `num_hosts` access
/// links of `host_gbps` for `duration`.
pub fn utilization(
    delivered_bytes: u64,
    num_hosts: usize,
    host_gbps: f64,
    duration: SimDuration,
) -> f64 {
    let capacity_bytes = num_hosts as f64 * host_gbps * 1e9 / 8.0 * duration.as_secs_f64();
    if capacity_bytes <= 0.0 {
        0.0
    } else {
        delivered_bytes as f64 / capacity_bytes
    }
}

/// Average fraction of time a link spent paused by PFC (Fig. 6b): `paused`
/// is the summed pause time of `links` links over `duration`.
pub fn pfc_pause_fraction(paused: SimDuration, links: usize, duration: SimDuration) -> f64 {
    if links == 0 || duration.is_zero() {
        0.0
    } else {
        paused.as_secs_f64() / (links as f64 * duration.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_percentiles_and_max() {
        let mut s = OccupancySeries::new();
        for i in 0..100u64 {
            s.record(i * 100_000); // 0 .. 9.9 MB
        }
        assert_eq!(s.len(), 100);
        assert!(s.percentile_bytes(50.0) <= s.percentile_bytes(99.0));
        assert_eq!(s.max_bytes(), 9_900_000.0);
    }

    #[test]
    fn merge_interleaved_reorders_shard_series_exactly() {
        // Global switch order: [A(part0), B(part1), C(part0)] over 2 ticks.
        // Part 0 records A, C per tick; part 1 records B per tick.
        let mut p0 = OccupancySeries::new();
        let mut p1 = OccupancySeries::new();
        for tick in 0..2u64 {
            p0.record(100 + tick); // A
            p0.record(300 + tick); // C
            p1.record(200 + tick); // B
        }
        let merged = OccupancySeries::merge_interleaved(&[&p0, &p1], &[0, 1, 0], 2);
        assert_eq!(
            merged.samples(),
            &[100.0, 200.0, 300.0, 101.0, 201.0, 301.0]
        );
    }

    #[test]
    fn merge_interleaved_of_one_part_is_identity() {
        let mut s = OccupancySeries::new();
        for v in [5u64, 7, 9, 11] {
            s.record(v);
        }
        let merged = OccupancySeries::merge_interleaved(&[&s], &[0, 0], 2);
        assert_eq!(merged.samples(), s.samples());
    }

    #[test]
    #[should_panic(expected = "every tick")]
    fn merge_interleaved_rejects_misaligned_parts() {
        let mut s = OccupancySeries::new();
        s.record(1);
        let _ = OccupancySeries::merge_interleaved(&[&s], &[0], 2);
    }

    #[test]
    fn merged_goodput_is_the_fabric_wide_series_and_resumes_from_its_total() {
        // One fabric-wide series versus two shard series whose receivers
        // split the delivered bytes.
        let us = SimTime::from_micros;
        let mut whole = GoodputSeries::new();
        let mut shard0 = GoodputSeries::new();
        let mut shard1 = GoodputSeries::new();
        for (at, a, b) in [(10u64, 600u64, 400u64), (20, 700, 400), (30, 700, 500)] {
            whole.record(us(at), a + b);
            shard0.record(us(at), a);
            shard1.record(us(at), b);
        }
        let per_tick: Vec<_> = whole.per_tick().collect();
        assert_eq!(per_tick, [(us(10), 1_000), (us(20), 100), (us(30), 100)]);
        assert_eq!(GoodputSeries::merge([&shard0, &shard1]), whole);
        assert_eq!(GoodputSeries::merge([&shard0]), shard0);
        assert_eq!(GoodputSeries::merge([]), GoodputSeries::new());
        // A later tick continues from the last running total.
        whole.record(us(40), 1_250);
        assert_eq!(whole.per_tick().last(), Some((us(40), 50)));
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn merged_goodput_rejects_parts_of_other_lengths() {
        let mut short = GoodputSeries::new();
        short.record(SimTime::from_micros(10), 1);
        let _ = GoodputSeries::merge([&GoodputSeries::new(), &short]);
    }

    #[test]
    fn utilization_math() {
        // 64 hosts at 100 Gbps for 1 ms can carry 800 MB.
        let u = utilization(400_000_000, 64, 100.0, SimDuration::from_millis(1));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn pfc_fraction_averages_over_links() {
        // Two links, 1 ms each: 400 us paused of 2 ms total = 20%.
        let paused = SimDuration::from_micros(100) + SimDuration::from_micros(300);
        let f = pfc_pause_fraction(paused, 2, SimDuration::from_millis(1));
        assert!((f - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_runs_are_zero() {
        let ms = SimDuration::from_millis(1);
        assert_eq!(utilization(0, 4, 100.0, ms), 0.0);
        assert_eq!(utilization(1_000, 0, 100.0, ms), 0.0);
        assert_eq!(pfc_pause_fraction(SimDuration::ZERO, 0, ms), 0.0);
        assert_eq!(pfc_pause_fraction(ms, 2, SimDuration::ZERO), 0.0);
        assert!(OccupancySeries::new().is_empty());
    }
}
