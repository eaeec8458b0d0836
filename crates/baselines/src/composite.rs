//! CompositeFlat — "LORM without the hierarchy" (our ablation system).
//!
//! Not one of the paper's comparators: this system asks whether LORM's
//! two-level Cycloid index is load-bearing, by emulating it on a *flat*
//! Chord with composite keys. The top `P` bits of a key are `H(attribute)`
//! (the "cluster" part) and the remaining bits are `ℋ(value)`, so every
//! attribute owns a contiguous `2^(64-P)` segment of the ring and a range
//! query is — as in LORM — one lookup plus a clockwise walk inside the
//! attribute's segment.
//!
//! What survives the flattening and what doesn't:
//!
//! * range-walk containment survives *statistically*: the walk covers the
//!   fraction of the attribute's segment the range spans, visiting
//!   `≈ 1 + (n/2^P)·span` nodes — with `2^P ≈ n/d` this matches LORM's
//!   `1 + d·span`;
//! * the **hard cap does not survive**: LORM's walk can never leave the
//!   d-node cluster, while a segment walk over a sparsely/unevenly
//!   populated arc can cross segment boundaries and probe nodes that hold
//!   other attributes' information;
//! * constant-degree maintenance does not survive: this is Chord, so each
//!   node keeps `O(log n)` links (between LORM's O(1) and Mercury's
//!   `m·log n`).

use crate::system::{ChordSystem, KeyScheme};
use dht_core::{ConsistentHash, LocalityHash};
use grid_resource::{AttrId, AttributeSpace};

/// Construction parameters for [`CompositeFlat`].
#[derive(Debug, Clone, Copy)]
pub struct CompositeConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Attribute-prefix bits `P`: each attribute owns a `2^(64-P)` ring
    /// segment. With `2^P` comparable to `n/d`, segment population matches
    /// LORM's cluster size `d`.
    pub prefix_bits: u8,
}

impl Default for CompositeConfig {
    fn default() -> Self {
        Self { seed: 0xC03B, prefix_bits: 8 }
    }
}

/// The composite key rule: `H(attribute) | ℋ(value)`; a range walks its
/// attribute's segment.
#[derive(Debug, Clone)]
pub struct CompositeScheme {
    /// Per-attribute segment base (`H(attr)` truncated to the prefix).
    segment_base: Vec<u64>,
    lph: LocalityHash,
    prefix_bits: u8,
}

impl KeyScheme for CompositeScheme {
    type Config = CompositeConfig;
    const NAME: &'static str = "Composite";

    /// # Panics
    /// Panics unless `1 <= cfg.prefix_bits < 64`.
    fn new(space: &AttributeSpace, cfg: &CompositeConfig) -> Self {
        assert!((1..64).contains(&cfg.prefix_bits), "prefix bits must be in 1..64");
        let hash = ConsistentHash::new(cfg.seed);
        let shift = 64 - u32::from(cfg.prefix_bits);
        let base = |a| (hash.hash_str(space.name(a)) >> shift) << shift;
        Self {
            segment_base: space.ids().map(base).collect(),
            // values map onto the in-segment suffix
            lph: space.lph(1u64 << shift),
            prefix_bits: cfg.prefix_bits,
        }
    }

    fn seed(cfg: &CompositeConfig) -> u64 {
        cfg.seed
    }

    fn key_of(&self, attr: AttrId, value: f64) -> u64 {
        self.segment_base[attr.0 as usize] | self.lph.hash(value)
    }
}

/// The flat composite-key ablation system.
pub type CompositeFlat = ChordSystem<CompositeScheme>;

impl CompositeFlat {
    /// The composite key of an (attribute, value) pair.
    pub fn key_of(&self, attr: AttrId, value: f64) -> u64 {
        self.scheme.key_of(attr, value)
    }

    /// Attribute-prefix bits in use.
    pub fn prefix_bits(&self) -> u8 {
        self.scheme.prefix_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_resource::{
        discovery::join_owners, Query, QueryMix, ResourceDiscovery, ValueTarget, Workload,
        WorkloadConfig,
    };
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn setup() -> (Workload, CompositeFlat) {
        let mut rng = SmallRng::seed_from_u64(0xC0);
        let cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut c = CompositeFlat::new(512, &w.space, CompositeConfig::default());
        c.place_all(&w.reports);
        (w, c)
    }

    fn brute(w: &Workload, attr: AttrId, t: &ValueTarget) -> Vec<usize> {
        let mut v: Vec<usize> = w
            .reports
            .iter()
            .filter(|r| r.attr == attr && t.matches(r.value))
            .map(|r| r.owner)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn composite_keys_preserve_value_order_within_attribute() {
        let (w, c) = setup();
        for attr in w.space.ids().take(5) {
            assert!(c.key_of(attr, 1.0) < c.key_of(attr, 40.0));
            assert!(c.key_of(attr, 40.0) < c.key_of(attr, 80.0));
            // and the whole segment shares the attribute prefix
            let shift = 64 - c.prefix_bits() as u32;
            assert_eq!(c.key_of(attr, 1.0) >> shift, c.key_of(attr, 80.0) >> shift);
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, c) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..80 {
                let q = w.random_query(2, mix, &mut rng);
                let out = c.query_from(rng.gen_range(0..512), &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected, "{mix:?}");
            }
        }
    }

    #[test]
    fn range_walk_stays_segment_scale_not_system_scale() {
        // The decisive comparison: segment walks visit ~n/2^P-scale node
        // counts (like LORM's cluster), not Mercury's n/4.
        let (w, c) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut total = 0usize;
        let queries = 300;
        for _ in 0..queries {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            total += c.query_from(rng.gen_range(0..512), &q).unwrap().tally.visited;
        }
        let avg = total as f64 / queries as f64;
        // n/2^P = 512/256 = 2 nodes per segment: expect ~1 + 2·E[span] ≈ 2
        assert!(avg < 6.0, "segment walks must stay small: avg {avg}");
        assert!(avg < 512.0 / 8.0, "and far below system-wide probing");
    }

    #[test]
    fn no_hard_cap_walks_can_cross_segments() {
        // Unlike LORM's d-bounded cluster walk, the segment walk scales
        // with segment population: with few prefix bits the segments are
        // fat and a full-domain range probes tens of nodes — no hard cap.
        let mut rng = SmallRng::seed_from_u64(0xC1);
        let wl_cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(wl_cfg, &mut rng).unwrap();
        let mut c = CompositeFlat::new(512, &w.space, CompositeConfig { prefix_bits: 4, seed: 7 });
        c.place_all(&w.reports);
        let (dmin, dmax) = w.space.domain();
        let mut max_visited = 0usize;
        for attr in w.space.ids() {
            let q = Query::new(vec![grid_resource::SubQuery {
                attr,
                target: ValueTarget::Range { low: dmin, high: dmax },
            }])
            .unwrap();
            let out = c.query_from(0, &q).unwrap();
            max_visited = max_visited.max(out.tally.visited);
        }
        // still complete, but some walk exceeded LORM's d = 8 hard cap
        assert!(max_visited > 8, "some segment walk should exceed a LORM cluster");
    }

    #[test]
    fn maintenance_state_is_logarithmic_not_constant() {
        let (_, c) = setup();
        let links = c.outlinks_per_node();
        // log2(512) = 9: clearly above LORM's ~6 constant links
        assert!(links.mean() > 8.0, "Chord-scale state expected: {}", links.mean());
    }
}
