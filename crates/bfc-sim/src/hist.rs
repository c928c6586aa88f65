//! Deterministic log-bucketed histograms.
//!
//! A [`Hist`] buckets `u64` observations into *fixed* log-linear buckets:
//! values below 16 get one bucket each (exact), and every power-of-two
//! decade above that is split into 8 linear sub-buckets, so the bucket
//! width is at most 1/8th of the value — a relative quantile error bound
//! of 12.5%. The boundaries are a pure function of the value, never of
//! the data seen so far, which is what makes the cross-shard merge exact:
//! merging per-shard histograms bucket-by-bucket is *bit-identical* to
//! observing the union serially, in any order.
//!
//! The `sum` is tracked in `u128` so it cannot saturate (and therefore
//! cannot make merge order observable); snapshot encoding is sparse
//! `(bucket index, count)` pairs via [`bfc_sim::snapshot`]'s codec.

use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Values below this threshold map to their own bucket (exact).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power-of-two decade above the linear range.
const SUBBUCKETS: u64 = 8;
/// Total number of distinct buckets a `u64` can land in:
/// 16 linear + (64 - 4) decades × 8 sub-buckets.
pub const BUCKETS: usize = 16 + 60 * 8;

/// Bucket index for a value. Monotone in `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        // e = floor(log2 value) >= 4; top 3 bits below the leading bit
        // pick the sub-bucket.
        let e = 63 - value.leading_zeros() as u64;
        let sub = (value >> (e - 3)) & (SUBBUCKETS - 1);
        (LINEAR_MAX + (e - 4) * SUBBUCKETS + sub) as usize
    }
}

/// Inclusive upper bound of a bucket: the largest value that maps to it.
/// Used as the quantile estimate and as Prometheus' `le` label.
pub fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_MAX {
        i
    } else {
        let off = i - LINEAR_MAX;
        let e = off / SUBBUCKETS + 4;
        let sub = off % SUBBUCKETS;
        // Bucket holds [base + sub*width, base + (sub+1)*width - 1] where
        // base = 2^e and width = 2^(e-3).
        let width = 1u64 << (e - 3);
        (1u64 << e)
            .wrapping_add((sub + 1).wrapping_mul(width))
            .wrapping_sub(1)
    }
}

/// A deterministic log-bucketed histogram of `u64` observations.
///
/// Equality is structural (bucket counts + sum + count), so two
/// histograms that saw the same multiset of values — in any order, on
/// any shard split — compare equal.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Hist {
    counts: Vec<u64>,
    sum: u128,
    count: u64,
}

impl Clone for Hist {
    fn clone(&self) -> Self {
        Hist {
            counts: self.counts.clone(),
            sum: self.sum,
            count: self.count,
        }
    }

    /// Copies `source` into `self`'s bucket storage: a holder that refreshes
    /// its copy of a live histogram over and over (the service-mode metrics
    /// hub, once per admission) allocates only when the histogram has grown
    /// past every bucket it held before.
    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
        self.sum = source.sum;
        self.count = source.count;
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` observations of `value` at once (folding pre-counted
    /// data into a histogram).
    #[inline]
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.sum += u128::from(value) * u128::from(n);
        self.count += n;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` bucket-by-bucket. Exact: the result is
    /// bit-identical to having observed both histograms' values serially.
    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Estimates quantile `q` (in `[0, 1]`) as the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest observation.
    /// The estimate is at most one bucket width above the exact value,
    /// i.e. within 12.5% relative error (exact below 16). Returns `None`
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper(i));
            }
        }
        None
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` in ascending
    /// bound order — the exposition and snapshot walk this.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| (bucket_upper(i), *c))
    }
}

/// Sparse `(bucket index, count)` pairs in ascending index order, then the
/// sum (high word first) and the total count. Equal histograms serialize to
/// equal bytes.
impl Snap for Hist {
    const MIN_BYTES: usize = usize::MIN_BYTES + 3 * u64::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        let Hist { counts, sum, count } = self;
        w.put_usize(counts.iter().filter(|c| **c != 0).count());
        for (i, c) in counts.iter().enumerate() {
            if *c != 0 {
                (i as u32, *c).save(w);
            }
        }
        ((*sum >> 64) as u64, *sum as u64).save(w);
        count.save(w);
    }

    // Hand-written: the stored form is sparse, and it checks that every
    // bucket index is in range and appears once and that the bucket counts
    // add up to the stored total.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut counts = Vec::new();
        let mut total = 0u64;
        for _ in 0..r.get_len::<(u32, u64)>()? {
            let (i, c): (u32, u64) = r.get()?;
            let i = i as usize;
            if i >= BUCKETS {
                return Err(SnapError::Corrupt("histogram bucket index out of range"));
            }
            if counts.len() <= i {
                counts.resize(i + 1, 0);
            }
            if counts[i] != 0 {
                return Err(SnapError::Corrupt("duplicate histogram bucket"));
            }
            counts[i] = c;
            total = total
                .checked_add(c)
                .ok_or(SnapError::Corrupt("histogram count overflow"))?;
        }
        let (hi, lo): (u64, u64) = r.get()?;
        let sum = (u128::from(hi) << 64) | u128::from(lo);
        let count = r.get()?;
        if count != total {
            return Err(SnapError::Corrupt("histogram count mismatch"));
        }
        Ok(Hist { counts, sum, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_bounds_are_inclusive() {
        // Every value maps into a bucket whose upper bound is >= the
        // value, and bucket indices never decrease as values grow.
        let mut prev = 0usize;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= prev || v < 4096, "bucket regressed at {v}");
            if v < 4096 {
                prev = b;
            }
            assert!(b < BUCKETS);
            assert!(bucket_upper(b) >= v, "upper({b}) < {v}");
            if b > 0 {
                assert!(bucket_upper(b - 1) < v, "value {v} fits earlier bucket");
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_error_is_bounded() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
        for v in [16u64, 100, 1000, 123_456, 1 << 40, u64::MAX / 7] {
            let upper = bucket_upper(bucket_of(v));
            let err = upper - v;
            // One bucket width: width = 2^(e-3) <= v / 8.
            assert!(err <= v / 8, "error {err} beyond 12.5% at {v}");
        }
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let values: Vec<u64> = (0..500).map(|i| i * i * 37 + i).collect();
        let mut serial = Hist::new();
        for &v in &values {
            serial.observe(v);
        }
        // Split across 3 "shards" round-robin, merge in two orders.
        let mut shards = vec![Hist::new(), Hist::new(), Hist::new()];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].observe(v);
        }
        let mut fwd = Hist::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = Hist::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, serial);
        assert_eq!(rev, serial);
        assert_eq!(fwd.sum(), values.iter().map(|&v| u128::from(v)).sum());
        assert_eq!(fwd.count(), values.len() as u64);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let mut h = Hist::new();
        let mut values: Vec<u64> = (1..=1000u64).map(|i| i * 13).collect();
        for &v in &values {
            h.observe(v);
        }
        values.sort_unstable();
        for &(q, idx) in &[(0.5, 499usize), (0.9, 899), (0.99, 989), (1.0, 999)] {
            let exact = values[idx];
            let est = h.quantile(q).unwrap();
            assert!(est >= exact, "estimate below exact at q={q}");
            assert!(est - exact <= exact / 8, "q={q}: {est} vs {exact}");
        }
        assert_eq!(Hist::new().quantile(0.5), None);
        assert_eq!(h.quantile(0.0), Some(bucket_upper(bucket_of(13))));
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for _ in 0..7 {
            a.observe(129);
        }
        b.observe_n(129, 7);
        b.observe_n(42, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_a_total_that_is_not_the_sum_of_the_buckets() {
        // (Round trip, byte-stable re-save and truncation are checked for
        // generated histograms by `tests/properties.rs`.)
        let mut h = Hist::new();
        h.observe(100);
        h.observe(200);
        let mut w = SnapWriter::new();
        h.save(&mut w);
        let mut bad = w.into_bytes();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(Hist::restore(&mut SnapReader::new(&bad)).is_err());
    }
}
