//! Resource-identifier derivation: `rescID = (ℋ(value), H(attribute))`.

use cycloid::CycloidId;
use dht_core::{ConsistentHash, LocalityHash};
use grid_resource::{AttrId, AttributeSpace};

/// How values are mapped onto cluster positions.
///
/// `Lph` is LORM's design (order-preserving, enables the short range walk
/// of Proposition 3.1). `Hashed` destroys locality on purpose — the
/// ablation benches use it to show why the locality-preserving hash is
/// load-bearing: ranges then have to probe the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Locality-preserving hash of the value (the paper's design).
    #[default]
    Lph,
    /// Uniform hash of the value (ablation: no range locality).
    Hashed,
}

/// Derives Cycloid resource identifiers from attribute/value pairs.
///
/// * cubical index = `H(attribute name) mod 2^d` — uniform placement of
///   attributes onto clusters;
/// * cyclic index = `ℋ(value)` over `[0, d)` — order-preserving placement
///   of values onto cluster positions, the property Proposition 3.1 needs.
#[derive(Debug, Clone)]
pub struct KeyDeriver {
    hash: ConsistentHash,
    lph: LocalityHash,
    /// Cached attribute-name hashes, indexed by `AttrId`.
    cubical: Vec<u32>,
    dimension: u8,
    placement: Placement,
}

impl KeyDeriver {
    /// Build a deriver for the attribute space on a dimension-`d` Cycloid.
    pub fn new(space: &AttributeSpace, dimension: u8, seed: u64) -> Self {
        Self::with_placement(space, dimension, seed, Placement::Lph)
    }

    /// Build a deriver with an explicit value-placement strategy.
    pub fn with_placement(
        space: &AttributeSpace,
        dimension: u8,
        seed: u64,
        placement: Placement,
    ) -> Self {
        let hash = ConsistentHash::new(seed);
        let mask = ((1u64 << dimension) - 1) as u32;
        let cubical = space.ids().map(|a| (hash.hash_str(space.name(a)) as u32) & mask).collect();
        Self { hash, lph: space.lph(dimension as u64), cubical, dimension, placement }
    }

    /// The value-placement strategy in effect.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The cluster responsible for an attribute.
    pub fn cluster_of(&self, attr: AttrId) -> u32 {
        self.cubical[attr.0 as usize]
    }

    /// The cyclic position of a value within its attribute's cluster.
    pub fn cyclic_of(&self, value: f64) -> u8 {
        match self.placement {
            Placement::Lph => self.lph.hash(value) as u8,
            Placement::Hashed => {
                (self.hash.hash_u64(value.to_bits()) % self.dimension as u64) as u8
            }
        }
    }

    /// Full resource identifier for an (attribute, value) pair.
    pub fn resc_id(&self, attr: AttrId, value: f64) -> CycloidId {
        CycloidId::new(self.cyclic_of(value), self.cluster_of(attr), self.dimension)
    }

    /// Dimension of the underlying Cycloid.
    pub fn dimension(&self) -> u8 {
        self.dimension
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AttributeSpace {
        AttributeSpace::synthetic(200, 1.0, 500.0).unwrap()
    }

    #[test]
    fn cluster_is_stable_per_attribute() {
        let kd = KeyDeriver::new(&space(), 8, 42);
        let a = AttrId(7);
        assert_eq!(kd.cluster_of(a), kd.cluster_of(a));
        assert!(kd.cluster_of(a) < 256);
    }

    #[test]
    fn different_seeds_move_clusters() {
        let s = space();
        let a = KeyDeriver::new(&s, 8, 1);
        let b = KeyDeriver::new(&s, 8, 2);
        let moved = s.ids().filter(|&x| a.cluster_of(x) != b.cluster_of(x)).count();
        assert!(moved > 150, "only {moved}/200 attributes moved");
    }

    #[test]
    fn attributes_spread_over_clusters() {
        let kd = KeyDeriver::new(&space(), 8, 3);
        let mut used: Vec<u32> = (0..200).map(|i| kd.cluster_of(AttrId(i))).collect();
        used.sort_unstable();
        used.dedup();
        // 200 balls into 256 bins: expect ~113 distinct minimum in theory;
        // anything above 100 shows uniform spreading.
        assert!(used.len() > 100, "{} distinct clusters", used.len());
    }

    #[test]
    fn cyclic_is_monotone_in_value() {
        let kd = KeyDeriver::new(&space(), 8, 4);
        let mut prev = 0u8;
        for v in 1..=500 {
            let c = kd.cyclic_of(v as f64);
            assert!(c >= prev, "ℋ must preserve order at v={v}");
            assert!(c < 8);
            prev = c;
        }
    }

    #[test]
    fn cyclic_covers_all_positions() {
        let kd = KeyDeriver::new(&space(), 8, 5);
        let mut seen = [false; 8];
        for v in 1..=500 {
            seen[kd.cyclic_of(v as f64) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "every cyclic sector must be reachable");
    }

    #[test]
    fn resc_id_combines_both_parts() {
        let kd = KeyDeriver::new(&space(), 8, 6);
        let id = kd.resc_id(AttrId(3), 250.0);
        assert_eq!(id.cubical, kd.cluster_of(AttrId(3)));
        assert_eq!(id.cyclic, kd.cyclic_of(250.0));
    }
}
