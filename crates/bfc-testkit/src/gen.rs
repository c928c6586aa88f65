//! Composable value generators.
//!
//! A [`Gen`] produces random values from a [`SimRng`] and proposes *simpler*
//! variants of a failing value for greedy shrinking. Generators compose:
//! [`vec_of`] and [`hash_set_of`] lift an element generator into a collection
//! generator, [`pair`] / [`triple`] build tuples, and [`one_of`] picks from a
//! fixed menu. All generation is deterministic given the RNG state, which is
//! what lets the runner replay a failing case from its printed seed.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;

use bfc_sim::SimRng;

/// A composable generator of test values.
pub trait Gen {
    /// The type of value produced.
    type Value: Clone + Debug;

    /// Draws one value. Must be a pure function of the RNG state so failing
    /// cases can be replayed from a seed.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes strictly "simpler" candidates derived from `value`, best
    /// candidates first. The runner keeps any candidate that still fails the
    /// property and iterates to a local minimum. An empty vector ends
    /// shrinking for this value.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Integer types that [`int_range`] can sample.
pub trait SampleInt: Copy + Clone + Debug + Ord + Eq + Hash {
    /// Widens to u64 (all supported types fit).
    fn to_u64(self) -> u64;
    /// Narrows from u64; callers guarantee the value is in range.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),+) => {$(
        impl SampleInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )+};
}

impl_sample_int!(u8, u16, u32, u64, usize);

/// Uniform integer in the half-open range `lo..hi`.
pub struct IntRange<T> {
    lo: T,
    hi: T,
}

/// Uniform integer generator over `range` (half-open, like `0u32..256`).
pub fn int_range<T: SampleInt>(range: Range<T>) -> IntRange<T> {
    assert!(
        range.start < range.end,
        "int_range requires a non-empty range"
    );
    IntRange {
        lo: range.start,
        hi: range.end,
    }
}

impl<T: SampleInt> Gen for IntRange<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        let span = self.hi.to_u64() - self.lo.to_u64();
        T::from_u64(self.lo.to_u64() + rng.next_below(span))
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let (lo, v) = (self.lo.to_u64(), value.to_u64());
        if v <= lo {
            return Vec::new();
        }
        // Halving-distance sequence toward the lower bound: lo, then v - d for
        // d = span/2, span/4, ..., 1. Greedy adoption of the first failing
        // candidate converges to the exact boundary in O(log span) rounds.
        let mut out = vec![lo];
        let mut d = v - lo;
        while d > 1 {
            d /= 2;
            out.push(v - d);
        }
        out.dedup();
        out.into_iter().map(T::from_u64).collect()
    }
}

/// Uniform float in the half-open range `lo..hi`.
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` generator over `range` (half-open, like `1.0..400.0`).
pub fn f64_range(range: Range<f64>) -> F64Range {
    assert!(
        range.start < range.end,
        "f64_range requires a non-empty range"
    );
    F64Range {
        lo: range.start,
        hi: range.end,
    }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut SimRng) -> f64 {
        self.lo + rng.next_f64() * (self.hi - self.lo)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        if *value > self.lo {
            out.push(self.lo);
            let mid = self.lo + (value - self.lo) / 2.0;
            if mid < *value {
                out.push(mid);
            }
        }
        out
    }
}

/// Fixed-menu generator: picks one of the given values uniformly.
pub struct OneOf<T> {
    choices: Vec<T>,
}

/// Picks uniformly from `choices`; shrinking moves toward earlier entries, so
/// list the simplest choice first.
pub fn one_of<T: Clone + Debug + PartialEq>(choices: &[T]) -> OneOf<T> {
    assert!(!choices.is_empty(), "one_of requires at least one choice");
    OneOf {
        choices: choices.to_vec(),
    }
}

impl<T: Clone + Debug + PartialEq> Gen for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        self.choices[rng.next_index(self.choices.len())].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        match self.choices.iter().position(|c| c == value) {
            Some(idx) => self.choices[..idx].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Vector generator with a length drawn from a half-open range.
pub struct VecOf<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Vector of values from `elem`, with length in `len` (half-open, like
/// `1..200`).
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> VecOf<G> {
    assert!(
        len.start < len.end,
        "vec_of requires a non-empty length range"
    );
    VecOf {
        elem,
        min_len: len.start,
        max_len: len.end,
    }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let len = self.min_len + rng.next_index(self.max_len - self.min_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // Structural shrinks first: big cuts, then dropping single elements.
        if len > self.min_len {
            let half = (len / 2).max(self.min_len);
            if half < len {
                out.push(value[..half].to_vec());
            }
            out.push(value[..len - 1].to_vec());
            out.push(value[1..].to_vec());
        }
        // Element-wise shrinks: replace one element at a time with each of
        // its candidates (the runner's eval cap bounds the total work).
        for (i, elem) in value.iter().enumerate() {
            for cand in self.elem.shrink(elem) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// Hash-set generator with a size drawn from a half-open range.
pub struct HashSetOf<G> {
    elem: G,
    min_size: usize,
    max_size: usize,
}

/// Hash set of values from `elem`, with size in `size` (half-open). The
/// element space must be large enough to reach the minimum size.
pub fn hash_set_of<G>(elem: G, size: Range<usize>) -> HashSetOf<G>
where
    G: Gen,
    G::Value: Eq + Hash + Ord,
{
    assert!(
        size.start < size.end,
        "hash_set_of requires a non-empty size range"
    );
    HashSetOf {
        elem,
        min_size: size.start,
        max_size: size.end,
    }
}

impl<G> Gen for HashSetOf<G>
where
    G: Gen,
    G::Value: Eq + Hash + Ord,
{
    type Value = HashSet<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> HashSet<G::Value> {
        let target = self.min_size + rng.next_index(self.max_size - self.min_size);
        let mut set = HashSet::with_capacity(target);
        // Cap the attempts so a tiny element space cannot loop forever.
        let mut attempts = 0usize;
        while set.len() < target && attempts < target.saturating_mul(100) + 100 {
            set.insert(self.elem.generate(rng));
            attempts += 1;
        }
        set
    }

    fn shrink(&self, value: &HashSet<G::Value>) -> Vec<HashSet<G::Value>> {
        if value.len() <= self.min_size {
            return Vec::new();
        }
        // Sort for deterministic candidate ordering (HashSet iteration order
        // is randomized per process).
        let mut sorted: Vec<&G::Value> = value.iter().collect();
        sorted.sort();
        let mut out = Vec::new();
        let half = (value.len() / 2).max(self.min_size);
        if half < value.len() {
            out.push(sorted[..half].iter().map(|v| (*v).clone()).collect());
        }
        for i in 0..sorted.len() {
            let cand: HashSet<G::Value> = sorted
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| (*v).clone())
                .collect();
            out.push(cand);
        }
        out
    }
}

/// Two-generator tuple.
pub struct Pair<A, B>(A, B);

/// Tuple generator `(a, b)`; shrinks one component at a time.
pub fn pair<A: Gen, B: Gen>(a: A, b: B) -> Pair<A, B> {
    Pair(a, b)
}

impl<A: Gen, B: Gen> Gen for Pair<A, B> {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut SimRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for a in self.0.shrink(&value.0) {
            out.push((a, value.1.clone()));
        }
        for b in self.1.shrink(&value.1) {
            out.push((value.0.clone(), b));
        }
        out
    }
}

/// Three-generator tuple.
pub struct Triple<A, B, C>(A, B, C);

/// Tuple generator `(a, b, c)`; shrinks one component at a time.
pub fn triple<A: Gen, B: Gen, C: Gen>(a: A, b: B, c: C) -> Triple<A, B, C> {
    Triple(a, b, c)
}

impl<A: Gen, B: Gen, C: Gen> Gen for Triple<A, B, C> {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut SimRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for a in self.0.shrink(&value.0) {
            out.push((a, value.1.clone(), value.2.clone()));
        }
        for b in self.1.shrink(&value.1) {
            out.push((value.0.clone(), b, value.2.clone()));
        }
        for c in self.2.shrink(&value.2) {
            out.push((value.0.clone(), value.1.clone(), c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_stays_in_bounds_and_shrinks_down() {
        let g = int_range(5u32..50);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let v = g.generate(&mut rng);
            assert!((5..50).contains(&v));
        }
        for cand in g.shrink(&40) {
            assert!(cand < 40 && cand >= 5);
        }
        assert!(g.shrink(&5).is_empty());
    }

    #[test]
    fn f64_range_stays_in_bounds() {
        let g = f64_range(1.0..400.0);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let v = g.generate(&mut rng);
            assert!((1.0..400.0).contains(&v));
        }
        for cand in g.shrink(&100.0) {
            assert!(cand < 100.0 && cand >= 1.0);
        }
    }

    #[test]
    fn one_of_only_yields_choices_and_shrinks_toward_front() {
        let g = one_of(&[16usize, 32, 64, 128]);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = g.generate(&mut rng);
            assert!([16, 32, 64, 128].contains(&v));
        }
        assert_eq!(g.shrink(&64), vec![16, 32]);
        assert!(g.shrink(&16).is_empty());
    }

    #[test]
    fn vec_of_respects_length_range_and_never_shrinks_below_min() {
        let g = vec_of(int_range(0u64..1000), 3..20);
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            let v = g.generate(&mut rng);
            assert!((3..20).contains(&v.len()));
        }
        let v = g.generate(&mut rng);
        for cand in g.shrink(&v) {
            assert!(cand.len() >= 3);
        }
    }

    #[test]
    fn hash_set_of_reaches_target_sizes() {
        let g = hash_set_of(int_range(0u32..16_384), 1..64);
        let mut rng = SimRng::new(5);
        for _ in 0..200 {
            let s = g.generate(&mut rng);
            assert!((1..64).contains(&s.len()));
        }
        let s = g.generate(&mut rng);
        for cand in g.shrink(&s) {
            assert!(!cand.is_empty());
            assert!(cand.len() < s.len());
            assert!(cand.is_subset(&s));
        }
    }

    #[test]
    fn tuple_shrinks_one_component_at_a_time() {
        let g = pair(int_range(0u32..100), int_range(0u32..100));
        for (a, b) in g.shrink(&(10, 20)) {
            assert!((a == 10) ^ (b == 20) || (a < 10 && b == 20) || (a == 10 && b < 20));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec_of(pair(int_range(0u32..256), int_range(1usize..4)), 1..50);
        let a = g.generate(&mut SimRng::new(99));
        let b = g.generate(&mut SimRng::new(99));
        assert_eq!(a, b);
    }
}
