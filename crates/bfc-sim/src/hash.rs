//! Fast, deterministic hashing for simulation-internal maps.
//!
//! `std`'s default `SipHash` is keyed per `HashMap` instance from process
//! randomness — robust against adversarial keys, but slow for the small
//! integer keys (flow IDs, port indices) the simulator looks up on every
//! packet, and a source of run-to-run iteration-order variation. The
//! simulator's keys are trusted, so [`FastHasher`] trades DoS resistance for
//! a multiply-rotate mix (FxHash-style) with a [`mix64`] finalizer: hot-path
//! lookups drop from ~25 ns to a few ns and hashing is bit-stable across
//! processes, which keeps every run of the engine exactly reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix64;

/// A `HashMap` using the deterministic [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` using the deterministic [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Multiplicative hasher for trusted simulation keys. See the module docs
/// for the trade-offs; use it via [`FastHashMap`] / [`FastHashSet`].
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    /// Odd multiplier (π's fractional bits, as used by FxHash).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown derives both its bucket index and its 7-bit control tag
        // from different regions of the hash, so a full-avalanche finalizer
        // matters more than raw mixing speed.
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(value: &T) -> u64 {
        let mut h = FastHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(&42u32), hash_one(&42u32));
        assert_eq!(hash_one(&(7u32, 9usize)), hash_one(&(7u32, 9usize)));
        assert_ne!(hash_one(&1u32), hash_one(&2u32));
    }

    #[test]
    fn small_keys_spread_over_the_hash_space() {
        // Sequential small integers must not collide in the top bits
        // (hashbrown's control tag) or the low bits (bucket index).
        let hashes: Vec<u64> = (0..1024u32).map(|v| hash_one(&v)).collect();
        let top7: std::collections::HashSet<u8> = hashes.iter().map(|h| (h >> 57) as u8).collect();
        assert!(top7.len() > 100, "top bits are degenerate: {}", top7.len());
        let low10: std::collections::HashSet<u16> =
            hashes.iter().map(|h| (h & 1023) as u16).collect();
        assert!(
            low10.len() > 600,
            "low bits are degenerate: {}",
            low10.len()
        );
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastHashMap<u32, u64> = FastHashMap::default();
        for i in 0..10_000u32 {
            m.insert(i, i as u64 * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&i), Some(&(i as u64 * 3)));
        }
        let mut s: FastHashSet<(u32, usize)> = FastHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn variable_length_bytes_hash_consistently() {
        assert_eq!(hash_one(&"abcdefghij"), hash_one(&"abcdefghij"));
        assert_ne!(hash_one(&"abcdefghij"), hash_one(&"abcdefghik"));
    }
}
