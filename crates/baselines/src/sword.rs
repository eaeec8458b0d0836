//! SWORD — single-DHT **centralized** resource discovery.
//!
//! Following the paper's characterization of SWORD (Oppenheimer et al.,
//! UCB TR 2004) with Chord substituted for Bamboo: the DHT key of a report
//! is `H(attribute)`, so *all* information of one attribute pools on a
//! single directory node. A query — point or range — is one lookup per
//! attribute and stops at the root: no probing, the best possible search
//! cost (`m` visited nodes, Theorem 4.9) at the price of the worst load
//! concentration (Theorem 4.4: `d×` worse than LORM on the percentiles).

use crate::host::ChordHost;
use dht_core::{BuildMode, ConsistentHash, DhtError, LoadDist, LookupTally, NodeIdx, Via};
use grid_resource::{
    AttrId, AttributeSpace, PieceKey, QueryOutcome, ResourceDiscovery, ResourceInfo,
    SelectivityEstimator, SubQuery, SubState,
};
use rand::rngs::SmallRng;

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

/// The SWORD baseline system.
#[derive(Clone)]
pub struct Sword {
    host: ChordHost,
    /// `H(attribute name)`, cached per attribute.
    attr_keys: Vec<u64>,
    phys_node: Vec<Option<NodeIdx>>,
    mode: BuildMode,
    /// Per-attribute value histograms for the adaptive query plan.
    sel: SelectivityEstimator,
}

impl Sword {
    /// Build a SWORD system of `n` physical nodes.
    pub fn new(n: usize, space: &AttributeSpace, cfg: SwordConfig) -> Self {
        Self::new_with_mode(n, space, cfg, BuildMode::Bulk)
    }

    /// Build with an explicit construction mode (overlay assembly and
    /// report placement; both modes are byte-identical, see [`BuildMode`]).
    pub fn new_with_mode(
        n: usize,
        space: &AttributeSpace,
        cfg: SwordConfig,
        mode: BuildMode,
    ) -> Self {
        let host = ChordHost::build_with_mode(n, cfg.seed, mode);
        let hash = ConsistentHash::new(cfg.seed);
        let attr_keys = space.ids().map(|a| hash.hash_str(space.name(a))).collect();
        Self {
            host,
            attr_keys,
            phys_node: (0..n).map(|i| Some(NodeIdx(i))).collect(),
            mode,
            sel: SelectivityEstimator::new(space),
        }
    }

    /// The DHT key of an attribute.
    pub fn key_of(&self, attr: AttrId) -> u64 {
        self.attr_keys[attr.0 as usize]
    }

    /// The underlying host (read-only, for tests and inspection).
    pub fn host(&self) -> &ChordHost {
        &self.host
    }

    fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.phys_node.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }
}

impl ResourceDiscovery for Sword {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "SWORD"
    }

    fn num_physical(&self) -> usize {
        self.phys_node.iter().filter(|n| n.is_some()).count()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys_node.get(phys).copied().flatten().is_some()
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        self.host.clear();
        self.sel.rebuild(reports);
        match self.mode {
            BuildMode::Bulk => {
                let items: Vec<(u64, ResourceInfo)> =
                    reports.iter().map(|&r| (self.key_of(r.attr), r)).collect();
                self.host.store_all_at_owners(items);
            }
            BuildMode::Incremental => {
                for &r in reports {
                    let _ = self.host.store_at_owner(self.key_of(r.attr), r);
                }
            }
        }
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.node_of(info.owner)?;
        let key = self.key_of(info.attr);
        let route = self.host.store_routed(from, key, info)?;
        self.sel.record(&info);
        Ok(LookupTally { hops: route.hops, lookups: 1, visited: 1, matches: 0 })
    }

    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        Some(&self.sel)
    }

    fn resolve_sub(
        &self,
        phys: usize,
        sub: &SubQuery,
        msg: u64,
        via: &mut Via<'_>,
        out: &mut QueryOutcome,
    ) -> Result<SubState, DhtError> {
        let from = self.node_of(phys)?;
        out.tally.lookups += 1;
        let route = via.route_stats(self.host.net(), from, self.key_of(sub.attr), 0, msg)?;
        out.tally.hops += route.hops;
        // SWORD stops at the attribute root: it holds everything, so there
        // is no probing and no walk a fault could truncate — a sub-query
        // that reached the root is fully resolved.
        out.tally.visited += 1;
        out.probed.push(route.terminal);
        self.host.matches_in_into(route.terminal, sub.attr, &sub.target, &mut out.owners);
        out.tally.matches += out.owners.len();
        Ok(SubState::Resolved)
    }

    fn directory_loads(&self) -> LoadDist {
        LoadDist::from_counts(&self.host.loads())
    }

    fn total_pieces(&self) -> usize {
        self.host.total_pieces()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        LoadDist::from_counts(&self.host.outlinks())
    }

    fn join_physical(&mut self, _rng: &mut SmallRng) -> Result<usize, DhtError> {
        let boot = self.phys_node.iter().copied().flatten().next().ok_or(DhtError::EmptyOverlay)?;
        let idx = self.host.net_mut().join(boot)?;
        self.host.sync_arena();
        let phys = self.phys_node.len();
        self.phys_node.push(Some(idx));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        let handoff = self.host.drain_directory(node);
        self.host.clear_replicas_of(node);
        self.host.net_mut().leave(node)?;
        self.phys_node[phys] = None;
        for info in handoff {
            let _ = self.host.store_at_owner(self.key_of(info.attr), info);
        }
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        let _lost = self.host.drain_directory(node);
        self.host.clear_replicas_of(node);
        self.host.net_mut().fail(node)?;
        self.phys_node[phys] = None;
        Ok(())
    }

    fn stabilize(&mut self) {
        // The simulator's maintenance tick: perfect repair from ground
        // truth (the protocol-level stabilize/fix_fingers path is
        // exercised by the chord crate's own tests), then replica repair
        // over the freshly repaired successor lists.
        self.host.net_mut().rebuild_all_state();
        let attr_keys = &self.attr_keys;
        self.host.repair_replicas_with(&mut |info, keys| {
            keys.push(attr_keys[info.attr.0 as usize]);
        });
    }

    fn set_replication(&mut self, k: usize) {
        let attr_keys = &self.attr_keys;
        self.host.set_replication_with(k, &mut |info, keys| {
            keys.push(attr_keys[info.attr.0 as usize]);
        });
    }

    fn replication(&self) -> usize {
        self.host.replication()
    }

    fn repair_stats(&self) -> dht_core::RepairStats {
        self.host.repair_stats()
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        self.host.surviving_pieces_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::{FaultPlan, Overlay};
    use grid_resource::{
        canonicalize_pieces, count_surviving, discovery::join_owners, QueryMix, QueryMode,
        Workload, WorkloadConfig,
    };
    use rand::{Rng, SeedableRng};

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

    fn brute(w: &Workload, attr: AttrId, t: &grid_resource::ValueTarget) -> Vec<usize> {
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
            let root = s.host.net().owner_of(s.key_of(attr)).unwrap();
            let here = s.host.matches_in(
                root,
                attr,
                &grid_resource::ValueTarget::Range { low: 0.0, high: 1e9 },
            );
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
