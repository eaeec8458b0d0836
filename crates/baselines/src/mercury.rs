//! Mercury — **multi-DHT** resource discovery.
//!
//! Following the paper's characterization of Mercury (Bharambe et al.,
//! SIGCOMM 2004) with Chord hubs: one DHT *hub per attribute*, every
//! physical node a member of every hub. Within hub `a`, a report
//! `⟨a, v, ip⟩` is placed by the locality-preserving hash of `v`, so the
//! hub is a value-ordered ring and a range query is a lookup plus a
//! successor walk across the hub — system-wide, since the hub contains
//! all `n` nodes (`1 + n/4` visited on average, Theorem 4.9).
//!
//! The price is structure maintenance: each physical node keeps
//! `m × O(log n)` routing links (Theorem 4.1 — the `m`-fold overhead
//! Figure 3(a) plots). The reward is the most balanced directory
//! distribution of all four systems (Theorem 4.5).

use crate::system::{ChordSystem, KeyScheme};
use dht_core::LocalityHash;
use grid_resource::{AttrId, AttributeSpace};

/// Construction parameters for [`Mercury`].
#[derive(Debug, Clone, Copy)]
pub struct MercuryConfig {
    /// Experiment seed (each hub derives its own stream from it).
    pub seed: u64,
}

impl Default for MercuryConfig {
    fn default() -> Self {
        Self { seed: 0x4E6C }
    }
}

/// Mercury's key rule: attribute `a` has hub `a` to itself, and within it
/// the key is `ℋ(value)`; a range walks the hub.
#[derive(Debug, Clone)]
pub struct MercuryScheme {
    lph: LocalityHash,
}

impl KeyScheme for MercuryScheme {
    type Config = MercuryConfig;
    const NAME: &'static str = "Mercury";
    const HUB_PER_ATTRIBUTE: bool = true;

    fn new(space: &AttributeSpace, _cfg: &MercuryConfig) -> Self {
        Self { lph: space.lph(0) }
    }

    fn seed(cfg: &MercuryConfig) -> u64 {
        cfg.seed
    }

    fn key_of(&self, _attr: AttrId, value: f64) -> u64 {
        self.lph.hash(value)
    }
}

/// The Mercury baseline system: one Chord hub per attribute.
pub type Mercury = ChordSystem<MercuryScheme>;

impl Mercury {
    /// The value key within a hub.
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

    fn setup() -> (Workload, Mercury) {
        let mut rng = SmallRng::seed_from_u64(0x4E);
        let cfg = WorkloadConfig {
            num_attrs: 12,
            values_per_attr: 80,
            num_nodes: 128,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut m = Mercury::new(128, &w.space, MercuryConfig::default());
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
    fn one_hub_per_attribute() {
        let (w, m) = setup();
        assert_eq!(m.num_hubs(), w.space.len());
        // every hub holds exactly the reports of its attribute
        for attr in w.space.ids() {
            assert_eq!(m.hub(attr).total_pieces(), 80);
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..60 {
                let q = w.random_query(3, mix, &mut rng);
                let out = m.query_from(5, &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn point_query_is_single_lookup_per_attr() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        let q = w.random_query(5, QueryMix::NonRange, &mut rng);
        let out = m.query_from(1, &q).unwrap();
        assert_eq!(out.tally.lookups, 5);
        assert_eq!(out.tally.visited, 5);
    }

    #[test]
    fn range_walk_is_system_wide() {
        let (_, m) = setup();
        let q = Query::new(vec![grid_resource::SubQuery {
            attr: AttrId(0),
            target: ValueTarget::Range { low: 1.0, high: 40.0 },
        }])
        .unwrap();
        let out = m.query_from(0, &q).unwrap();
        // ~half the domain -> ~half of the 128-node hub
        assert!(out.tally.visited > 32, "visited {}", out.tally.visited);
    }

    #[test]
    fn outlinks_scale_with_hub_count() {
        let (_, m) = setup();
        let links = m.outlinks_per_node();
        // each hub contributes ~log2(128)=7 distinct links
        assert!(links.mean() > 12.0 * 5.0, "mean outlinks {}", links.mean());
    }

    #[test]
    fn directory_loads_are_balanced() {
        let (w, m) = setup();
        let loads = m.directory_loads();
        assert_eq!(loads.total() as usize, w.reports.len());
        // Theorem 4.5/4.6: Mercury spreads info most evenly — almost every
        // node stores something.
        let loaded = loads.loads().iter().filter(|&&l| l > 0.0).count();
        assert!(loaded > 100, "only {loaded} of 128 nodes loaded");
    }

    #[test]
    fn faulty_queries_are_deterministic_and_degrade_under_loss() {
        let (w, m) = setup();
        let plan = FaultPlan::new(7, 0.2, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
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
        assert!(degraded > 0, "20% loss should degrade some queries");
    }

    #[test]
    fn churn_keeps_hubs_in_lockstep() {
        let (w, mut m) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let p = m.join_physical(&mut rng).unwrap();
        assert!(m.is_live(p));
        assert_eq!(m.num_physical(), 129);
        m.leave_physical(3).unwrap();
        assert!(!m.is_live(3));
        m.stabilize();
        m.place_all(&w.reports);
        // queries still complete
        let q = w.random_query(2, QueryMix::Range, &mut rng);
        let out = m.query_from(p, &q).unwrap();
        let expected =
            join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
        let mut got = out.owners.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }
}
