//! Cycloid identifiers: (cyclic index, cubical index) pairs.

/// A Cycloid identifier `(k, a_{d-1}…a_0)`.
///
/// * `cyclic` (`k`) is the position within a cluster, `0 ≤ k < d`;
/// * `cubical` (`a`) names the cluster, `0 ≤ a < 2^d`.
///
/// Both node identifiers and resource keys live in this space. LORM sets
/// `cubical = H(attribute) mod 2^d` and `cyclic = ℋ(value)` with the
/// locality-preserving hash spanning `[0, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CycloidId {
    /// Cluster name (`a`), `0 ≤ cubical < 2^d`. Ordering of the struct is
    /// lexicographic (cubical first), matching the large-cycle order.
    pub cubical: u32,
    /// Position within the cluster (`k`), `0 ≤ cyclic < d`.
    pub cyclic: u8,
}

impl CycloidId {
    /// Construct an identifier, asserting it fits dimension `d`.
    pub fn new(cyclic: u8, cubical: u32, d: u8) -> Self {
        debug_assert!(cyclic < d, "cyclic index {cyclic} out of range for d={d}");
        debug_assert!((cubical as u64) < (1u64 << d), "cubical index {cubical} out of range");
        Self { cyclic, cubical }
    }

    /// Linearized slot number `a·d + k` in `[0, d·2^d)`.
    pub fn slot(self, d: u8) -> usize {
        self.cubical as usize * d as usize + self.cyclic as usize
    }

    /// Inverse of [`Self::slot`].
    pub fn from_slot(slot: usize, d: u8) -> Self {
        Self { cubical: (slot / d as usize) as u32, cyclic: (slot % d as usize) as u8 }
    }

    /// Clockwise distance from cluster `a` to cluster `b` on the large
    /// cycle of `2^d` clusters.
    pub fn cw_cluster_dist(a: u32, b: u32, d: u8) -> u32 {
        let m = (1u64 << d) as u32;
        b.wrapping_sub(a) & (m.wrapping_sub(1))
    }

    /// Minimal ring distance between clusters `a` and `b`.
    pub fn cluster_dist(a: u32, b: u32, d: u8) -> u32 {
        let cw = Self::cw_cluster_dist(a, b, d);
        let ccw = Self::cw_cluster_dist(b, a, d);
        cw.min(ccw)
    }

    /// Clockwise distance from cyclic index `a` to `b` on a cluster ring of
    /// circumference `d`.
    pub fn cw_cyclic_dist(a: u8, b: u8, d: u8) -> u8 {
        // `a, b < d`, so `b + d - a < 2d` and one subtract wraps it.
        let s = b + d - a;
        if s >= d {
            s - d
        } else {
            s
        }
    }

    /// Minimal cyclic ring distance.
    pub fn cyclic_dist(a: u8, b: u8, d: u8) -> u8 {
        let cw = Self::cw_cyclic_dist(a, b, d);
        let ccw = Self::cw_cyclic_dist(b, a, d);
        cw.min(ccw)
    }
}

impl std::fmt::Display for CycloidId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {:b})", self.cyclic, self.cubical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let d = 8;
        for cub in [0u32, 1, 100, 255] {
            for cyc in 0..d {
                let id = CycloidId::new(cyc, cub, d);
                assert_eq!(CycloidId::from_slot(id.slot(d), d), id);
            }
        }
    }

    #[test]
    fn slot_is_dense_and_ordered() {
        let d = 3;
        let mut slots: Vec<usize> = Vec::new();
        for cub in 0..8u32 {
            for cyc in 0..3u8 {
                slots.push(CycloidId::new(cyc, cub, d).slot(d));
            }
        }
        assert_eq!(slots, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn ordering_is_cubical_major() {
        let a = CycloidId { cyclic: 7, cubical: 3 };
        let b = CycloidId { cyclic: 0, cubical: 4 };
        assert!(a < b);
    }

    #[test]
    fn cluster_distance_wraps() {
        let d = 8;
        assert_eq!(CycloidId::cw_cluster_dist(250, 5, d), 11);
        assert_eq!(CycloidId::cluster_dist(250, 5, d), 11);
        assert_eq!(CycloidId::cluster_dist(5, 250, d), 11);
        assert_eq!(CycloidId::cluster_dist(0, 128, d), 128);
        assert_eq!(CycloidId::cluster_dist(10, 10, d), 0);
    }

    #[test]
    fn cyclic_distance_wraps() {
        let d = 8;
        assert_eq!(CycloidId::cw_cyclic_dist(6, 1, d), 3);
        assert_eq!(CycloidId::cyclic_dist(6, 1, d), 3);
        assert_eq!(CycloidId::cyclic_dist(1, 6, d), 3);
        assert_eq!(CycloidId::cyclic_dist(4, 4, d), 0);
    }

    #[test]
    fn display_format() {
        let id = CycloidId { cyclic: 2, cubical: 5 };
        assert_eq!(id.to_string(), "(2, 101)");
    }
}
