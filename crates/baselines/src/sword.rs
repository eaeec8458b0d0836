//! SWORD — single-DHT **centralized** resource discovery.
//!
//! Following the paper's characterization of SWORD (Oppenheimer et al.,
//! UCB TR 2004) with Chord substituted for Bamboo: the DHT key of a report
//! is `H(attribute)`, so *all* information of one attribute pools on a
//! single directory node. A query — point or range — is one lookup per
//! attribute and stops at the root: no probing, the best possible search
//! cost (`m` visited nodes, Theorem 4.9) at the price of the worst load
//! concentration (Theorem 4.4: `d×` worse than LORM on the percentiles).

use crate::system::{ChordSystem, KeyScheme};
use dht_core::ConsistentHash;
use grid_resource::{AttrId, AttributeSpace};

/// Construction parameters for [`Sword`].
#[derive(Debug, Clone, Copy)]
pub struct SwordConfig {
    /// Experiment seed.
    pub seed: u64,
}

impl Default for SwordConfig {
    fn default() -> Self {
        Self { seed: 0x5708D }
    }
}

/// SWORD's key rule: `H(attribute)`, whatever the value — the attribute
/// root holds everything, so no range ever walks.
#[derive(Debug, Clone)]
pub struct SwordScheme {
    /// `H(attribute name)`, cached per attribute.
    attr_keys: Vec<u64>,
}

impl KeyScheme for SwordScheme {
    type Config = SwordConfig;
    const NAME: &'static str = "SWORD";
    const WALKS: bool = false;

    fn new(space: &AttributeSpace, cfg: &SwordConfig) -> Self {
        let hash = ConsistentHash::new(cfg.seed);
        Self { attr_keys: space.ids().map(|a| hash.hash_str(space.name(a))).collect() }
    }

    fn seed(cfg: &SwordConfig) -> u64 {
        cfg.seed
    }

    fn key_of(&self, attr: AttrId, _value: f64) -> u64 {
        self.attr_keys[attr.0 as usize]
    }
}

/// The SWORD baseline system.
pub type Sword = ChordSystem<SwordScheme>;

impl Sword {
    /// The DHT key of an attribute.
    pub fn key_of(&self, attr: AttrId) -> u64 {
        self.scheme.attr_keys[attr.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::{FaultPlan, Overlay};
    use grid_resource::{
        canonicalize_pieces, count_surviving, discovery::join_owners, PieceKey, QueryMix,
        QueryMode, ResourceDiscovery, ValueTarget, Workload, WorkloadConfig,
    };
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn setup() -> (Workload, Sword) {
        let mut rng = SmallRng::seed_from_u64(0x51);
        let cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 256,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut s = Sword::new(256, &w.space, SwordConfig::default());
        s.place_all(&w.reports);
        (w, s)
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
    fn all_info_of_attr_on_one_node() {
        let (w, s) = setup();
        for attr in w.space.ids() {
            let root = s.host().net().owner_of(s.key_of(attr)).unwrap();
            let everything = ValueTarget::Range { low: 0.0, high: 1e9 };
            let here = s.host().directory(root).matching_owners(attr, &everything);
            assert_eq!(here.len(), 80, "attribute {attr} not pooled on its root");
        }
    }

    #[test]
    fn range_query_visits_exactly_one_node_per_attr() {
        let (w, s) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for arity in [1usize, 5, 10] {
            let q = w.random_query(arity, QueryMix::Range, &mut rng);
            let out = s.query_from(0, &q).unwrap();
            assert_eq!(out.tally.visited, arity, "SWORD never probes beyond the root");
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, s) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..100 {
                let q = w.random_query(2, mix, &mut rng);
                let out = s.query_from(7, &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn load_is_heavily_concentrated() {
        let (w, s) = setup();
        let loads = s.directory_loads();
        // only ~25 of 256 nodes hold anything
        assert_eq!(loads.total() as usize, w.reports.len());
        assert_eq!(loads.p1(), 0.0);
        assert!(loads.p99() >= 80.0, "p99 {} should reach a full attribute", loads.p99());
    }

    #[test]
    fn total_pieces_is_one_per_report() {
        let (w, s) = setup();
        assert_eq!(s.total_pieces(), w.reports.len());
    }

    fn surviving(s: &Sword) -> Vec<PieceKey> {
        let mut out = Vec::new();
        s.surviving_pieces_into(&mut out);
        canonicalize_pieces(&mut out);
        out
    }

    #[test]
    fn k1_replication_stays_a_no_op() {
        let (_, mut s) = setup();
        let before = surviving(&s);
        s.set_replication(1);
        s.stabilize();
        assert_eq!(s.replication(), 1);
        assert_eq!(s.repair_stats().rounds(), 0, "no repair rounds at degree 1");
        assert_eq!(s.repair_stats().transfers(), 0);
        assert_eq!(surviving(&s), before);
    }

    #[test]
    fn replication_adds_copies_not_identities() {
        let (w, mut s) = setup();
        s.set_replication(3);
        assert_eq!(s.replication(), 3);
        // Replicas are extra copies of the same piece identities, not new
        // primaries: the piece census and primary count both stay put.
        let mut expected: Vec<PieceKey> = w.reports.iter().map(PieceKey::of).collect();
        canonicalize_pieces(&mut expected);
        assert_eq!(surviving(&s), expected);
        assert_eq!(s.total_pieces(), w.reports.len());
        // Seeding is free; repair has not run yet.
        assert_eq!(s.repair_stats().transfers(), 0);
    }

    #[test]
    fn single_failures_between_repairs_lose_nothing_at_k2() {
        // The durability contract: with degree 2, fewer than 2 adjacent
        // failures per repair window can never lose a replicated piece.
        let (_, mut s) = setup();
        s.set_replication(2);
        let initial = surviving(&s);
        assert!(!initial.is_empty());
        let mut rng = SmallRng::seed_from_u64(0xDEAD);
        for round in 0..12 {
            let phys = loop {
                let p = rng.gen_range(0..256);
                if s.is_live(p) {
                    break p;
                }
            };
            s.fail_physical(phys).unwrap();
            s.stabilize();
            let now = surviving(&s);
            assert_eq!(
                count_surviving(&initial, &now),
                initial.len(),
                "pieces lost in round {round}"
            );
        }
        assert!(s.repair_stats().transfers() > 0, "repair must have moved copies");
    }

    #[test]
    fn repair_survives_successor_list_exhaustion() {
        // Regression: Chord's successor list holds 4 entries. Fail the
        // current replica target of one attribute root six times — one
        // failure per repair window — so the list the replicas were first
        // placed on is exhausted and then some. Repair-on-stabilize must
        // re-replicate onto the next live successor each round, and the
        // replication degree must be fully restored at the end.
        let (w, mut s) = setup();
        s.set_replication(2);
        let initial = surviving(&s);
        let root = s.host().net().owner_of(s.key_of(AttrId(0))).unwrap();
        for round in 0..6 {
            let mut targets = Vec::new();
            s.host().net().replica_targets_into(root, 2, &mut targets).unwrap();
            let victim = targets[0];
            assert_ne!(victim, root);
            s.fail_physical(victim.0).unwrap();
            s.stabilize();
            let now = surviving(&s);
            assert_eq!(
                count_surviving(&initial, &now),
                initial.len(),
                "pieces lost in round {round}"
            );
        }
        // Degree restored: the root's *current* replica target holds a
        // copy of every piece whose attribute routes to this root.
        let mut targets = Vec::new();
        s.host().net().replica_targets_into(root, 2, &mut targets).unwrap();
        let store = s.host().replicas_of(targets[0]).unwrap();
        let mut checked = 0usize;
        for r in &w.reports {
            let key = s.key_of(r.attr);
            if s.host().net().owner_of(key).unwrap() == root {
                assert!(store.contains(root, key, r), "replica missing for {r:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "at least one attribute pool must route to the chosen root");
    }

    #[test]
    fn faulty_queries_are_deterministic_and_degrade_under_loss() {
        let (w, s) = setup();
        let plan = FaultPlan::new(7, 0.25, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut degraded = 0usize;
        for i in 0..80u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let a = s.query(2, &q, QueryMode::Faulty(&plan, i)).unwrap();
            let b = s.query(2, &q, QueryMode::Faulty(&plan, i)).unwrap();
            assert_eq!(a, b);
            // SWORD has no walk: a sub either resolves or fails outright.
            assert_eq!(a.subs_resolved, a.subs_answered);
            if !a.is_complete() {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "25% loss should degrade some queries");
    }
}
