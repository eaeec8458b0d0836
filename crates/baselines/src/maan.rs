//! MAAN — single-DHT **decentralized** resource discovery.
//!
//! Following the paper's characterization of MAAN (Cai et al., *Journal of
//! Grid Computing* 2004): one flat Chord, but every report is registered
//! **twice** —
//!
//! * an *attribute registration* under `H(attribute)` (all attribute
//!   registrations of one attribute pool on one node), and
//! * a *value registration* under the global locality-preserving hash of
//!   the value (value registrations of all attributes interleave around
//!   the whole ring).
//!
//! Hence MAAN stores twice the information (Theorem 4.2), a directory node
//! carries `k + m·k/n` pieces (Theorem 4.3), every sub-query needs **two**
//! lookups (Theorems 4.7/4.8), and a range sub-query walks the value ring
//! system-wide: `2 + n/4` visited nodes on average (Theorem 4.9).

use crate::system::{ChordSystem, KeyScheme};
use dht_core::{ConsistentHash, LocalityHash};
use grid_resource::{AttrId, AttributeSpace};

/// Construction parameters for [`Maan`].
#[derive(Debug, Clone, Copy)]
pub struct MaanConfig {
    /// Experiment seed.
    pub seed: u64,
}

impl Default for MaanConfig {
    fn default() -> Self {
        Self { seed: 0x3AA1 }
    }
}

/// MAAN's key rule: `H(attribute)` first, then the ring-wide `ℋ(value)`.
/// Both share one ring (and one cache salt — the keys themselves
/// disambiguate); a range walks the value ring.
#[derive(Debug, Clone)]
pub struct MaanScheme {
    attr_keys: Vec<u64>,
    lph: LocalityHash,
}

impl KeyScheme for MaanScheme {
    type Config = MaanConfig;
    const NAME: &'static str = "MAAN";

    fn new(space: &AttributeSpace, cfg: &MaanConfig) -> Self {
        let hash = ConsistentHash::new(cfg.seed);
        Self {
            attr_keys: space.ids().map(|a| hash.hash_str(space.name(a))).collect(),
            // 0 span = the full 64-bit ring: the paper's system-wide value space.
            lph: space.lph(0),
        }
    }

    fn seed(cfg: &MaanConfig) -> u64 {
        cfg.seed
    }

    fn attr_key(&self, attr: AttrId) -> Option<u64> {
        Some(self.attr_keys[attr.0 as usize])
    }

    fn key_of(&self, _attr: AttrId, value: f64) -> u64 {
        self.lph.hash(value)
    }
}

/// The MAAN baseline system.
pub type Maan = ChordSystem<MaanScheme>;

impl Maan {
    /// The attribute-registration key.
    pub fn attr_key(&self, attr: AttrId) -> u64 {
        self.scheme.attr_keys[attr.0 as usize]
    }

    /// The value-registration key.
    pub fn value_key(&self, value: f64) -> u64 {
        self.scheme.lph.hash(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::FaultPlan;
    use grid_resource::{
        discovery::join_owners, Query, QueryMix, QueryMode, ResourceDiscovery, ValueTarget,
        Workload, WorkloadConfig,
    };
    use rand::{rngs::SmallRng, SeedableRng};

    fn setup() -> (Workload, Maan) {
        let mut rng = SmallRng::seed_from_u64(0x3A);
        let cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 256,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut m = Maan::new(256, &w.space, MaanConfig::default());
        m.place_all(&w.reports);
        (w, m)
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
    fn stores_twice_the_information() {
        // Theorem 4.2: MAAN's total stored information is 2x the reports.
        let (w, m) = setup();
        assert_eq!(m.total_pieces(), 2 * w.reports.len());
    }

    #[test]
    fn point_query_needs_two_lookups_per_attr() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for arity in [1usize, 4, 10] {
            let q = w.random_query(arity, QueryMix::NonRange, &mut rng);
            let out = m.query_from(0, &q).unwrap();
            assert_eq!(out.tally.lookups, 2 * arity);
            assert_eq!(out.tally.visited, 2 * arity);
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..60 {
                let q = w.random_query(2, mix, &mut rng);
                let out = m.query_from(9, &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn range_walk_is_system_wide() {
        // A range covering ~half the domain must probe ~half the ring
        // (plus the attribute lookup) — hundreds of nodes, not a handful.
        let (w, m) = setup();
        let q = Query::new(vec![grid_resource::SubQuery {
            attr: AttrId(0),
            target: ValueTarget::Range { low: 1.0, high: 40.0 },
        }])
        .unwrap();
        let out = m.query_from(0, &q).unwrap();
        assert!(
            out.tally.visited > 256 / 4,
            "visited {} should approach n/2 for a half-domain range",
            out.tally.visited
        );
        let _ = w;
    }

    #[test]
    fn value_keys_preserve_order() {
        let (_, m) = setup();
        assert!(m.value_key(10.0) < m.value_key(20.0));
        assert!(m.value_key(20.0) < m.value_key(79.0));
    }

    #[test]
    fn load_spreads_beyond_attribute_roots() {
        // Value registrations spread over one root per distinct grid value
        // (up to 80 here) in addition to the 25 attribute roots, so far
        // more nodes hold pieces than under pure attribute pooling.
        let (_, m) = setup();
        let loaded = m.directory_loads().loads().iter().filter(|&&l| l > 0.0).count();
        assert!((60..=105).contains(&loaded), "{loaded} of 256 nodes hold pieces");
    }

    #[test]
    fn replication_preserves_query_completeness_under_failures() {
        // With degree 2 and one failure per repair window, no piece is
        // ever lost — and because promotion reroutes a dead primary's
        // pieces under *both* MAAN registrations, every query stays
        // complete against the original workload.
        let (w, mut m) = setup();
        m.set_replication(2);
        let mut rng = SmallRng::seed_from_u64(0xFA);
        use rand::Rng;
        for _ in 0..8 {
            let phys = loop {
                let p = rng.gen_range(0..256);
                if m.is_live(p) {
                    break p;
                }
            };
            m.fail_physical(phys).unwrap();
            m.stabilize();
        }
        let origin = (0..256).find(|&p| m.is_live(p)).unwrap();
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..40 {
                let q = w.random_query(2, mix, &mut rng);
                let out = m.query_from(origin, &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected, "{mix:?} incomplete after replicated churn");
            }
        }
        assert!(m.repair_stats().transfers() > 0);
    }

    #[test]
    fn faulty_queries_are_deterministic_and_degrade_under_loss() {
        let (w, m) = setup();
        let plan = FaultPlan::new(7, 0.2, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut degraded = 0usize;
        for i in 0..60u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let a = m.query(2, &q, QueryMode::Faulty(&plan, i)).unwrap();
            let b = m.query(2, &q, QueryMode::Faulty(&plan, i)).unwrap();
            assert_eq!(a, b);
            if !a.is_complete() {
                degraded += 1;
            }
        }
        // MAAN's system-wide range walks make it the most exposed system:
        // a long walk gives the drop coin many chances to fire.
        assert!(degraded > 10, "only {degraded} of 60 queries degraded at 20% loss");
    }
}
