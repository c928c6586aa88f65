//! Deterministic pseudo-random number generation.
//!
//! All randomness in the BFC reproduction flows through [`SimRng`] so that
//! every experiment is reproducible from a single seed. The generator is
//! xoshiro256++ seeded through SplitMix64 — the standard construction
//! recommended by the xoshiro authors — implemented here directly so the
//! simulation core has no external dependencies.

/// A small, fast, seedable PRNG (xoshiro256++) with the samplers the
/// workload generator needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

// The raw xoshiro256++ state: a restored generator continues the exact
// output stream.
crate::snap_struct! { SimRng { s } }

/// SplitMix64 step, used for seeding and for stateless hashing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless 64-bit mixing function (Stafford variant 13). Used wherever the
/// simulator needs a hash that is consistent across switches, e.g. computing
/// virtual flow IDs and bloom-filter bit positions.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not be seeded with all zeros; splitmix64 of any seed
        // cannot produce four zero outputs, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Derives an independent child generator; useful for giving each
    /// traffic source its own stream while preserving determinism.
    pub fn split(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ mix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller; uses one pair per call, no caching,
    /// which keeps the generator state trivially cloneable).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal sample parameterised by the *mean of the distribution*
    /// (not of the underlying normal) and the shape parameter `sigma`.
    ///
    /// The BFC paper draws flow inter-arrival times from a log-normal
    /// distribution with `sigma = 2`, scaled so that the mean matches the
    /// target offered load; this helper performs that scaling.
    pub fn lognormal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        let mu = mean.ln() - sigma * sigma / 2.0;
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Picks an element of `slice` uniformly at random.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        debug_assert!(!slice.is_empty());
        &slice[self.next_index(slice.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_is_in_range() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            let x = rng.next_below(13);
            assert!(x < 13);
        }
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn lognormal_mean_is_close() {
        let mut rng = SimRng::new(9);
        let n = 400_000;
        let mean: f64 = (0..n)
            .map(|_| rng.lognormal_with_mean(10.0, 2.0))
            .sum::<f64>()
            / n as f64;
        // sigma = 2 is heavy-tailed, so allow a generous tolerance.
        assert!((mean - 10.0).abs() < 1.5, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(123);
        let mut parent2 = SimRng::new(123);
        let mut a = parent1.split(0);
        let mut b = parent2.split(0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(123).split(1);
        let matches = (0..100)
            .filter(|_| SimRng::new(123).split(0).next_u64() == c.next_u64())
            .count();
        assert!(matches <= 1);
    }

    #[test]
    fn mix64_differs_on_nearby_inputs() {
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }
}
