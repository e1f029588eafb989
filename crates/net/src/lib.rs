//! # fancy-net — wire formats for FANcY
//!
//! This crate defines the on-the-wire representations used by the FANcY
//! gray-failure detection system (SIGCOMM 2022):
//!
//! * [`Prefix`] — a /24 IPv4 destination prefix, the *entry* granularity used
//!   throughout the paper's evaluation,
//! * [`FancyTag`] — the 2-byte packet tag the upstream switch adds to every
//!   counted packet (§4.1/§5.3 of the paper),
//! * [`ControlMessage`] — the Start / Start-ACK / Stop / Report messages of
//!   the counting protocol (Fig. 3/4),
//! * [`Ipv4Header`] — a minimal IPv4 header view, enough to express the
//!   header fields that gray failures match on (Table 1: IP ID, packet
//!   size, prefixes).
//!
//! All formats follow the smoltcp idiom: structured types with checked
//! `parse` and infallible `emit`, and every format is round-trip tested.
//! The simulator carries the structured forms for speed; the byte encodings
//! exist so the protocol is a real, implementable wire protocol and so that
//! overhead accounting (§5.3) is grounded in actual message sizes.

pub mod control;
pub mod error;
pub mod hash;
pub mod ipv4;
pub mod prefix;
pub mod segment;
pub mod tag;

pub use control::{ControlBody, ControlKind, ControlMessage, SessionKind};
pub use error::ParseError;
pub use hash::{FastHasher, FastMap, FastSet};
pub use ipv4::Ipv4Header;
pub use prefix::Prefix;
pub use segment::Segment;
pub use tag::FancyTag;

/// Deterministic 64-bit mixer (splitmix64 finalizer).
///
/// FANcY needs per-level hash functions for its hash-based trees (§4.2) and
/// the output Bloom filter (§4.3). Switch hardware uses CRC-based hash units;
/// any good deterministic mixer preserves the behaviour that matters here
/// (uniform spreading of entries over counters, independence across levels).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash `value` under a seeded hash function, returning a value in `0..modulus`.
///
/// Used for the per-level tree hash functions `H_j` and the Bloom filter
/// hashes. `modulus` must be non-zero.
#[inline]
pub fn seeded_hash(seed: u64, value: u64, modulus: u64) -> u64 {
    debug_assert!(modulus > 0, "hash modulus must be non-zero");
    mix64(seed ^ mix64(value)) % modulus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn seeded_hash_respects_modulus() {
        for seed in 0..16u64 {
            for v in 0..256u64 {
                assert!(seeded_hash(seed, v, 190) < 190);
            }
        }
    }

    #[test]
    fn seeded_hash_spreads_values() {
        // A coarse uniformity check: hashing 19_000 consecutive values into
        // 190 buckets should put something in every bucket.
        let mut buckets = [0u32; 190];
        for v in 0..19_000u64 {
            buckets[seeded_hash(7, v, 190) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 0));
    }

    #[test]
    fn different_seeds_give_independent_functions() {
        // Two levels of the tree must not map entries identically.
        let collisions = (0..1000u64)
            .filter(|&v| seeded_hash(1, v, 190) == seeded_hash(2, v, 190))
            .count();
        // Expect ~1000/190 ≈ 5 random collisions; 1000 would mean identical.
        assert!(collisions < 50, "levels look correlated: {collisions}");
    }
}
