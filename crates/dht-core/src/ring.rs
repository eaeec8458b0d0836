//! Arithmetic on the 64-bit circular identifier space.
//!
//! Chord (and the large cycle of Cycloid) place identifiers on a ring of
//! size 2^64. All interval predicates here follow the conventions of the
//! Chord paper: intervals are *directed clockwise* from their first
//! endpoint, and wrap around zero.

/// Clockwise distance from `a` to `b` on the 2^64 ring.
///
/// This is the number of identifier positions a message travelling
/// clockwise (in the direction of increasing identifiers) must cover to get
/// from `a` to `b`. It is zero iff `a == b`.
#[inline]
pub fn clockwise_dist(a: u64, b: u64) -> u64 {
    b.wrapping_sub(a)
}

/// Minimal (bidirectional) distance between `a` and `b` on the 2^64 ring.
#[inline]
pub fn ring_dist(a: u64, b: u64) -> u64 {
    let cw = clockwise_dist(a, b);
    let ccw = clockwise_dist(b, a);
    cw.min(ccw)
}

/// Is `x` in the half-open clockwise interval `(a, b]`?
///
/// This is the ownership test of consistent hashing: a node with identifier
/// `b` and predecessor `a` owns exactly the keys in `(a, b]`.
/// When `a == b` the interval denotes the *entire* ring (the single-node
/// case), matching Chord's convention.
#[inline]
pub fn in_interval_oc(a: u64, b: u64, x: u64) -> bool {
    if a == b {
        true
    } else {
        clockwise_dist(a, x) <= clockwise_dist(a, b) && x != a
    }
}

/// Is `x` in the half-open clockwise interval `[a, b)`?
#[inline]
pub fn in_interval_co(a: u64, b: u64, x: u64) -> bool {
    if a == b {
        true
    } else {
        clockwise_dist(a, x) < clockwise_dist(a, b)
    }
}

/// Is `x` in the open clockwise interval `(a, b)`?
///
/// Used by Chord's `closest_preceding_finger`: a finger `f` makes progress
/// towards key `k` from node `n` iff `f ∈ (n, k)`. When `a == b` the open
/// interval is the whole ring minus the endpoint, again per Chord.
#[inline]
pub fn in_interval_oo(a: u64, b: u64, x: u64) -> bool {
    if a == b {
        x != a
    } else {
        x != a && x != b && clockwise_dist(a, x) < clockwise_dist(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clockwise_dist_simple() {
        assert_eq!(clockwise_dist(10, 25), 15);
        assert_eq!(clockwise_dist(25, 10), u64::MAX - 14);
        assert_eq!(clockwise_dist(7, 7), 0);
    }

    #[test]
    fn clockwise_dist_wraps() {
        assert_eq!(clockwise_dist(u64::MAX, 0), 1);
        assert_eq!(clockwise_dist(u64::MAX - 1, 2), 4);
    }

    #[test]
    fn ring_dist_symmetric() {
        assert_eq!(ring_dist(3, 10), 7);
        assert_eq!(ring_dist(10, 3), 7);
        assert_eq!(ring_dist(0, u64::MAX), 1);
    }

    #[test]
    fn oc_interval_basic() {
        assert!(in_interval_oc(10, 20, 15));
        assert!(in_interval_oc(10, 20, 20)); // closed at right
        assert!(!in_interval_oc(10, 20, 10)); // open at left
        assert!(!in_interval_oc(10, 20, 25));
    }

    #[test]
    fn oc_interval_wrapping() {
        // interval (MAX-5, 5] crosses zero
        assert!(in_interval_oc(u64::MAX - 5, 5, 0));
        assert!(in_interval_oc(u64::MAX - 5, 5, u64::MAX));
        assert!(in_interval_oc(u64::MAX - 5, 5, 5));
        assert!(!in_interval_oc(u64::MAX - 5, 5, 6));
        assert!(!in_interval_oc(u64::MAX - 5, 5, u64::MAX - 5));
    }

    #[test]
    fn oc_interval_degenerate_is_whole_ring() {
        assert!(in_interval_oc(42, 42, 0));
        assert!(in_interval_oc(42, 42, 41));
        assert!(in_interval_oc(42, 42, 42));
    }

    #[test]
    fn co_interval_basic() {
        assert!(in_interval_co(10, 20, 10));
        assert!(!in_interval_co(10, 20, 20));
        assert!(in_interval_co(10, 20, 19));
    }

    #[test]
    fn oo_interval_basic() {
        assert!(in_interval_oo(10, 20, 15));
        assert!(!in_interval_oo(10, 20, 10));
        assert!(!in_interval_oo(10, 20, 20));
    }

    #[test]
    fn oo_interval_degenerate_excludes_endpoint_only() {
        assert!(in_interval_oo(5, 5, 6));
        assert!(in_interval_oo(5, 5, 4));
        assert!(!in_interval_oo(5, 5, 5));
    }
}
