//! A deterministic, non-cryptographic hasher for the simulator's hot maps.
//!
//! Per-packet node state (FIBs, a switch's per-port tables, a receiver's
//! per-flow state) is keyed by small integers: prefixes, port ids, flow
//! ids and tuples of them. std's default SipHash-1-3 with a per-map random
//! key costs far more than the lookup it guards, and its random key makes
//! map iteration order differ from run to run. [`FastHasher`] folds the
//! written integer words into one 64-bit state and finishes with
//! [`mix64`], so the high bits hashbrown uses for its control bytes are
//! as well spread as the low bits it uses for bucket indices.
//!
//! Iteration order of a [`FastMap`] is a deterministic function of the
//! keys and insertion history, but it is still an arbitrary order: code
//! whose result feeds the event schedule must sort keys first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::mix64;

/// Odd multiplier of the word fold (the FxHash constant).
const FOLD: u64 = 0x517C_C1B7_2722_0A95;

/// Word-folding hasher finished by [`mix64`]. Not DoS-resistant: use it
/// only for keys the simulation itself generates.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FOLD);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prefix;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    /// 65,536 consecutive /24 prefixes from 10.0.0.0/24.
    fn prefixes() -> impl Iterator<Item = Prefix> {
        (0..65_536u32).map(|i| Prefix(0x0A_00_00 + i))
    }

    #[test]
    fn maps_filled_in_the_same_order_iterate_identically() {
        let fill = || {
            let mut m = FastMap::default();
            for (i, p) in prefixes().take(5000).enumerate() {
                m.insert((i % 7, p), i);
            }
            m
        };
        let (a, b) = (fill(), fill());
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    fn integer_keys_do_not_collide() {
        let mut seen = FastSet::default();
        for p in prefixes() {
            assert!(seen.insert(hash_of(p)), "prefix {p:?} collides");
        }
        // (port, prefix) tuples: 16 ports over 4096 consecutive prefixes.
        let mut seen = FastSet::default();
        for i in 0..65_536usize {
            let key = (i % 16, Prefix(0x0A_00_00 + (i / 16) as u32));
            assert!(seen.insert(hash_of(key)), "tuple {key:?} collides");
        }
    }

    #[test]
    fn control_byte_bits_spread_uniformly() {
        // hashbrown takes its 7-bit control byte from the top of the hash.
        let mut buckets = [0u32; 128];
        for p in prefixes() {
            buckets[(hash_of(p) >> 57) as usize] += 1;
        }
        let mean = 65_536 / 128;
        for (b, &n) in buckets.iter().enumerate() {
            assert!(
                n.abs_diff(mean) * 4 <= mean,
                "bucket {b} holds {n}, mean {mean}"
            );
        }
    }
}
