//! The two hash functions of the paper.
//!
//! LORM (and MAAN, which it borrows the idea from) distinguishes:
//!
//! * the **consistent hash** `H` — a uniform, seeded hash used to place
//!   *attribute names* (strings) onto the identifier space. Uniformity
//!   spreads attributes over clusters / directory nodes; the seed makes
//!   every experiment reproducible.
//! * the **locality-preserving hash** `LPH` (written `ℋ` in the paper) — a
//!   monotone map from a bounded *value* domain onto an identifier
//!   segment. Monotonicity is what turns a range query `[v1, v2]` into a
//!   contiguous clockwise walk between `root(ℋ(v1))` and `root(ℋ(v2))`
//!   (Proposition 3.1 of the paper).

use crate::error::DhtError;

/// Seeded, platform-stable consistent hash `H`.
///
/// Implemented as FNV-1a over the input bytes followed by a SplitMix64
/// finalizer, which gives good avalanche behaviour without pulling in a
/// cryptographic dependency. Stability matters: directory placement in the
/// experiments must not depend on the Rust version or platform, unlike
/// `std::collections::hash_map::DefaultHasher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistentHash {
    seed: u64,
}

impl ConsistentHash {
    /// Create a hash function from an experiment seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Hash arbitrary bytes onto the full 64-bit identifier space.
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET ^ self.seed;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        splitmix64(h)
    }

    /// Hash a string (attribute name) onto the identifier space.
    pub fn hash_str(&self, s: &str) -> u64 {
        self.hash_bytes(s.as_bytes())
    }

    /// Hash a `u64` (e.g. a synthetic node id) onto the identifier space.
    pub fn hash_u64(&self, x: u64) -> u64 {
        splitmix64(x ^ self.seed.rotate_left(32))
    }
}

/// SplitMix64 finalizer: a fixed, well-studied 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Locality-preserving hash `ℋ` over a bounded value domain.
///
/// Maps `[min, max]` monotonically onto `[0, span)` (an identifier segment
/// length chosen by the caller: the full 64-bit ring for Mercury/MAAN, the
/// cyclic-index segment of a cluster for LORM). Values outside the domain
/// are clamped — the paper assumes `π_min ≤ π ≤ π_max` and real grid
/// attributes advertise their domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityHash {
    min: f64,
    max: f64,
    span: u64,
}

impl LocalityHash {
    /// Build an `ℋ` for the value domain `[min, max]` mapped onto
    /// identifiers `[0, span)`. `span = 0` denotes the full 2^64 ring.
    ///
    /// # Errors
    /// Returns [`DhtError::InvalidRange`] if `min >= max` or either bound
    /// is not finite.
    pub fn new(min: f64, max: f64, span: u64) -> Result<Self, DhtError> {
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(DhtError::InvalidRange { low: min, high: max });
        }
        Ok(Self { min, max, span })
    }

    /// Domain lower bound.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Domain upper bound.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The identifier segment length (`0` = full 2^64 ring).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Hash a value. Monotone: `a <= b` implies `hash(a) <= hash(b)`.
    pub fn hash(&self, v: f64) -> u64 {
        let v = v.clamp(self.min, self.max);
        let frac = (v - self.min) / (self.max - self.min);
        // `frac` is in [0, 1]; map onto [0, span). Using 2^63 double
        // precision split keeps monotonicity for the full-ring case.
        if self.span == 0 {
            // full ring: scale by 2^64 via two halves to avoid overflow
            let scaled = frac * (u64::MAX as f64);
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        } else {
            let scaled = frac * (self.span as f64);
            (scaled as u64).min(self.span - 1)
        }
    }
}

/// Order-preserving encoding of a string onto the 64-bit identifier
/// space: the first eight bytes, big-endian.
///
/// Lexicographic order of strings maps to numeric order of codes, which
/// turns *prefix* queries over string descriptions ("OS=Linux…") into
/// contiguous range queries — the mechanism behind the semantic-discovery
/// extension the paper lists as future work. Strings sharing their first
/// eight bytes collide (they land on the same directory position), which
/// only coarsens placement, never correctness.
pub fn lex_hash(s: &str) -> u64 {
    let mut buf = [0u8; 8];
    let bytes = s.as_bytes();
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf)
}

/// The smallest code strictly greater than every string with prefix `s`
/// (saturating at `u64::MAX`): `[lex_hash(s), lex_prefix_end(s)]` covers
/// exactly the strings starting with `s` (up to the 8-byte horizon).
pub fn lex_prefix_end(s: &str) -> u64 {
    let bytes = s.as_bytes();
    if bytes.len() >= 8 {
        return lex_hash(s);
    }
    let mut buf = [0xFFu8; 8];
    buf[..bytes.len()].copy_from_slice(&bytes[..bytes.len()]);
    u64::from_be_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_hash_is_deterministic() {
        let h = ConsistentHash::new(42);
        assert_eq!(h.hash_str("cpu"), h.hash_str("cpu"));
        assert_eq!(h.hash_bytes(b"mem"), h.hash_bytes(b"mem"));
    }

    #[test]
    fn consistent_hash_depends_on_seed() {
        let a = ConsistentHash::new(1).hash_str("cpu");
        let b = ConsistentHash::new(2).hash_str("cpu");
        assert_ne!(a, b);
    }

    #[test]
    fn consistent_hash_separates_close_inputs() {
        let h = ConsistentHash::new(0);
        let a = h.hash_str("attr-001");
        let b = h.hash_str("attr-002");
        // avalanche: should land far apart on the ring
        assert!(crate::ring::ring_dist(a, b) > 1 << 32);
    }

    #[test]
    fn consistent_hash_u64_differs_from_identity() {
        let h = ConsistentHash::new(0);
        assert_ne!(h.hash_u64(5), 5);
        assert_ne!(h.hash_u64(5), h.hash_u64(6));
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the SplitMix64 reference implementation
        // seeded with 0: first output is 0xE220A8397B1DCDAF.
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
    }

    #[test]
    fn lph_rejects_bad_domain() {
        assert!(LocalityHash::new(5.0, 5.0, 100).is_err());
        assert!(LocalityHash::new(7.0, 2.0, 100).is_err());
        assert!(LocalityHash::new(f64::NAN, 2.0, 100).is_err());
    }

    #[test]
    fn lph_is_monotone_on_segment() {
        let h = LocalityHash::new(0.0, 100.0, 1 << 20).unwrap();
        let mut prev = 0;
        for i in 0..=1000 {
            let v = i as f64 / 10.0;
            let x = h.hash(v);
            assert!(x >= prev, "not monotone at {v}");
            prev = x;
        }
    }

    #[test]
    fn lph_endpoints_map_to_segment_bounds() {
        let h = LocalityHash::new(1.0, 501.0, 1000).unwrap();
        assert_eq!(h.hash(1.0), 0);
        assert_eq!(h.hash(501.0), 999); // clamped to span-1
        assert_eq!(h.hash(0.0), 0); // below-domain clamps
        assert_eq!(h.hash(1e9), 999); // above-domain clamps
    }

    #[test]
    fn lph_full_ring_monotone() {
        let h = LocalityHash::new(0.0, 1.0, 0).unwrap();
        assert!(h.hash(0.2) < h.hash(0.8));
        assert_eq!(h.hash(0.0), 0);
        assert_eq!(h.hash(1.0), u64::MAX);
    }

    #[test]
    fn lex_hash_preserves_lexicographic_order() {
        let words = ["", "a", "aa", "ab", "abc", "b", "linux", "linux-5.4", "windows"];
        for w in words.windows(2) {
            assert!(lex_hash(w[0]) <= lex_hash(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(lex_hash("linux") < lex_hash("linuy"));
    }

    #[test]
    fn lex_prefix_range_covers_exactly_the_prefix() {
        let (lo, hi) = (lex_hash("lin"), lex_prefix_end("lin"));
        for yes in ["lin", "linux", "lint", "lin-zzz"] {
            let c = lex_hash(yes);
            assert!(c >= lo && c <= hi, "{yes} should be in the prefix range");
        }
        for no in ["lim", "lio", "windows", "l"] {
            let c = lex_hash(no);
            assert!(c < lo || c > hi, "{no} should be outside the prefix range");
        }
    }

    #[test]
    fn lex_hash_long_strings_share_8_byte_horizon() {
        assert_eq!(lex_hash("abcdefghi"), lex_hash("abcdefghj"));
        assert_eq!(lex_prefix_end("abcdefghi"), lex_hash("abcdefghi"));
    }
}
