//! The LORM resource discovery service.

use crate::keys::{KeyDeriver, Placement};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{
    Advance, DhtError, LoadDist, LookupTally, NodeIdx, Overlay, RepairStats, Via, WalkMemo,
};
use grid_resource::{
    AttributeSpace, Directory, Host, PhysMap, PieceKey, QueryOutcome, ResourceDiscovery,
    ResourceInfo, SelectivityEstimator, SubQuery, SubState, ValueTarget,
};
use rand::rngs::SmallRng;

/// Construction parameters for [`Lorm`].
#[derive(Debug, Clone, Copy)]
pub struct LormConfig {
    /// Cycloid dimension `d` (the paper's evaluation: 8, i.e. 2048 slots).
    pub dimension: u8,
    /// Experiment seed (drives identifier assignment and hashing).
    pub seed: u64,
    /// Value-placement strategy (`Lph` is the paper's design; `Hashed` is
    /// the ablation that destroys range locality).
    pub placement: Placement,
}

impl Default for LormConfig {
    fn default() -> Self {
        Self { dimension: 8, seed: 0x10124, placement: Placement::Lph }
    }
}

/// LORM: multi-attribute range-query resource discovery over one Cycloid.
///
/// Physical node `p` of the grid is Cycloid node `NodeIdx(p)` at
/// construction; nodes joining later get fresh indices. Every node keeps a
/// *directory*: the resource information pieces whose `rescID` it is the
/// root of. Directories, replica stores (placed along the inside leaf set:
/// cluster members clockwise of the root) and their repair are the shared
/// [`Host`]; what LORM adds is the key rule — a piece is stored and looked
/// up under its rescID — and the intra-cluster range walk.
#[derive(Clone)]
pub struct Lorm {
    host: Host<Cycloid>,
    keys: KeyDeriver,
    phys: PhysMap,
    /// Per-attribute value histograms driving the adaptive query plan,
    /// rebuilt at `place_all` and updated per routed `register`.
    sel: SelectivityEstimator,
}

impl Lorm {
    /// Build a LORM system of `n` physical nodes over the attribute space.
    ///
    /// # Panics
    /// Panics if `n` exceeds the Cycloid capacity `d·2^d`.
    pub fn new(n: usize, space: &AttributeSpace, cfg: LormConfig) -> Self {
        let overlay = Cycloid::build(n, CycloidConfig { dimension: cfg.dimension, seed: cfg.seed });
        Self {
            host: Host::new(overlay),
            keys: KeyDeriver::with_placement(space, cfg.dimension, cfg.seed, cfg.placement),
            phys: PhysMap::identity(n),
            sel: SelectivityEstimator::new(space),
        }
    }

    /// The underlying Cycloid overlay (read-only).
    pub fn overlay(&self) -> &Cycloid {
        self.host.net()
    }

    /// The key deriver (rescID computation).
    pub fn keys(&self) -> &KeyDeriver {
        &self.keys
    }

    /// Directory of a specific overlay node (for inspection).
    pub fn directory(&self, node: NodeIdx) -> &Directory {
        self.host.directory(node)
    }

    /// The overlay with its directories and replica stores (read-only, for
    /// tests and inspection).
    pub fn host(&self) -> &Host<Cycloid> {
        &self.host
    }

    /// Probe the intra-cluster walk of a range query: starting at the root
    /// of `ℋ(low)`, follow inside-leaf successors while the next member's
    /// value sector still intersects the queried arc `[ℋ(low), ℋ(high)]`
    /// (Proposition 3.1) — a [`Via::walk`] of at most `d` steps. Appends
    /// the probed nodes in walk order, including the start; returns `true`
    /// when a fault truncated the walk before the stop rule fired.
    ///
    /// The stop rule is the *sector transition*: a successor is probed iff
    /// the first cyclic position it owns (rather than the current node)
    /// lies within the arc. This stays correct when nearest-neighbor
    /// ownership wraps — e.g. a two-member cluster where `root(low)` and
    /// `root(high)` coincide but the member in between owns interior
    /// positions. The arc is inclusive, so the walk's exclusive span is
    /// one past its cyclic length.
    fn range_walk_into(
        &self,
        start: NodeIdx,
        lo_pos: u8,
        hi_pos: u8,
        msg: u64,
        via: &mut Via<'_>,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        let net = self.overlay();
        let d = net.dimension();
        let span = u64::from(CycloidId::cw_cyclic_dist(lo_pos, hi_pos, d)) + 1;
        let memo = WalkMemo { salt: 0, lo: u64::from(lo_pos), span, epoch: net.epoch() };
        via.walk(
            start,
            usize::from(d),
            msg,
            Some(memo),
            |cur| {
                let Some(node) = net.cluster_successor(cur).ok().flatten() else {
                    return Advance::End;
                };
                if node == start {
                    return Advance::End;
                }
                let Some(p) = self.transition_position(cur, node) else {
                    return Advance::End;
                };
                match u64::from(CycloidId::cw_cyclic_dist(lo_pos, p, d)) {
                    dist if dist >= span => Advance::Covered,
                    dist => Advance::To { node, dist },
                }
            },
            out,
        )
    }

    /// First cyclic position, walking clockwise from `cur`, that is owned
    /// by `next` rather than `cur` (the boundary between their sectors
    /// under the nearest-with-clockwise-tie ownership rule).
    fn transition_position(&self, cur: NodeIdx, next: NodeIdx) -> Option<u8> {
        let d = self.overlay().dimension();
        let ck = self.overlay().id_of(cur).ok()?.cyclic;
        let nk = self.overlay().id_of(next).ok()?.cyclic;
        for step in 1..=d {
            let p = (ck + step) % d;
            let dc = CycloidId::cyclic_dist(ck, p, d);
            let dn = CycloidId::cyclic_dist(nk, p, d);
            let next_wins = dn < dc
                || (dn == dc
                    && CycloidId::cw_cyclic_dist(p, nk, d) == dn
                    && CycloidId::cw_cyclic_dist(p, ck, d) != dc);
            if next_wins {
                return Some(p);
            }
        }
        None
    }

    /// Probe every member of `start`'s cluster (ablation mode: a range
    /// query without locality-preserving placement cannot stop early).
    /// Returns `true` when a fault truncated the walk. Never cached: there
    /// is no stop rule worth memoizing.
    fn full_cluster_walk_into(
        &self,
        start: NodeIdx,
        msg: u64,
        via: &mut Via<'_>,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        let net = self.overlay();
        via.walk(
            start,
            usize::from(net.dimension()),
            msg,
            None,
            |cur| match net.cluster_successor(cur).ok().flatten() {
                Some(node) if node != start => Advance::To { node, dist: 0 },
                _ => Advance::End,
            },
            out,
        )
    }
}

impl ResourceDiscovery for Lorm {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "LORM"
    }

    fn num_physical(&self) -> usize {
        self.phys.num_live()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys.is_live(phys)
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        self.host.clear();
        self.sel.rebuild(reports);
        let keys = &self.keys;
        self.host.store_all_at_owners(reports.iter().map(|&r| (keys.resc_id(r.attr, r.value), r)));
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.phys.node_of(info.owner)?;
        let id = self.keys.resc_id(info.attr, info.value);
        let route = self.host.store_routed(from, id, info)?;
        self.sel.record(&info);
        debug_assert_eq!(self.check_invariants(), Ok(()));
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
        let from = self.phys.node_of(phys)?;
        let (lookup_value, bounds) = match sub.target {
            ValueTarget::Point(v) => (v, None),
            ValueTarget::Range { low, high } => {
                (low, Some((self.keys.cyclic_of(low), self.keys.cyclic_of(high))))
            }
        };
        let resc_id = self.keys.resc_id(sub.attr, lookup_value);
        out.tally.lookups += 1;
        let route = via.route_stats(self.overlay(), from, resc_id, msg)?;
        out.tally.hops += route.hops;
        let first = out.probed.len();
        let truncated = match bounds {
            None => {
                out.probed.push(route.terminal);
                false
            }
            Some((lo, hi)) => match self.keys.placement() {
                // Proposition 3.1: matching roots are contiguous.
                Placement::Lph => {
                    self.range_walk_into(route.terminal, lo, hi, msg, via, &mut out.probed)
                }
                // Ablation: without locality preservation, matches can sit
                // anywhere in the cluster — probe it all.
                Placement::Hashed => {
                    self.full_cluster_walk_into(route.terminal, msg, via, &mut out.probed)
                }
            },
        };
        out.tally.visited += out.probed.len() - first;
        for &node in &out.probed[first..] {
            self.host.directory(node).matching_owners_into(sub.attr, &sub.target, &mut out.owners);
        }
        out.tally.matches += out.owners.len();
        Ok(if truncated { SubState::Degraded } else { SubState::Resolved })
    }

    fn directory_loads(&self) -> LoadDist {
        LoadDist::new(self.phys.live().map(|n| self.host.directory(n).len() as f64).collect())
    }

    fn total_pieces(&self) -> usize {
        self.host.total_pieces()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        let links = |n| self.overlay().outlinks(n).unwrap_or(0) as f64;
        LoadDist::new(self.phys.live().map(links).collect())
    }

    fn join_physical(&mut self, rng: &mut SmallRng) -> Result<usize, DhtError> {
        let slot = self.overlay().random_free_slot(rng).ok_or(DhtError::IdSpaceExhausted)?;
        let idx = self.host.update_net(|net| net.join_with_id(slot))?;
        let phys = self.phys.push(idx);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.phys.node_of(phys)?;
        // Hand off stored objects before departing (Cycloid's
        // self-organization keeps stored objects available). The node's
        // replica store dies with it.
        let handoff = self.host.retire(node);
        self.host.update_net(|net| net.leave(node))?;
        self.phys.remove(phys);
        let keys = &self.keys;
        self.host
            .store_all_at_owners(handoff.into_iter().map(|r| (keys.resc_id(r.attr, r.value), r)));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.phys.node_of(phys)?;
        let _lost = self.host.retire(node);
        self.host.update_net(|net| net.fail(node))?;
        self.phys.remove(phys);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    fn stabilize(&mut self) {
        self.host.update_net(Cycloid::rebuild_all_links);
        let keys = &self.keys;
        self.host.repair_replicas_with(|info, out| out.push(keys.resc_id(info.attr, info.value)));
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn set_replication(&mut self, k: usize) {
        let keys = &self.keys;
        self.host
            .set_replication_with(k, |info, out| out.push(keys.resc_id(info.attr, info.value)));
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn replication(&self) -> usize {
        self.host.replication()
    }

    fn repair_stats(&self) -> RepairStats {
        self.host.repair_stats()
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        self.host.surviving_pieces_into(out);
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.host.check_invariants()?;
        self.phys.check_mounted_on(self.overlay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::FaultPlan;
    use grid_resource::{AttrId, Query, QueryMix, QueryMode, Workload, WorkloadConfig};
    use rand::SeedableRng;

    fn small_workload() -> (Workload, Lorm) {
        let mut rng = SmallRng::seed_from_u64(0xAB);
        let cfg = WorkloadConfig {
            num_attrs: 30,
            values_per_attr: 100,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut l =
            Lorm::new(512, &w.space, LormConfig { dimension: 8, seed: 0xD0, ..Default::default() });
        l.place_all(&w.reports);
        (w, l)
    }

    /// Full-population fixture: every Cycloid slot occupied, so clusters
    /// have all `d = 8` members (the paper's 2048-node setup).
    fn full_workload() -> (Workload, Lorm) {
        let mut rng = SmallRng::seed_from_u64(0xAC);
        let cfg = WorkloadConfig {
            num_attrs: 30,
            values_per_attr: 100,
            num_nodes: 2048,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut l = Lorm::new(
            2048,
            &w.space,
            LormConfig { dimension: 8, seed: 0xD1, ..Default::default() },
        );
        l.place_all(&w.reports);
        (w, l)
    }

    /// Brute-force reference: owners whose reports satisfy the target.
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
    fn placement_conserves_pieces() {
        let (w, l) = small_workload();
        assert_eq!(l.total_pieces(), w.reports.len());
        assert_eq!(l.directory_loads().total() as usize, w.reports.len());
    }

    #[test]
    fn attribute_lives_in_one_cluster() {
        let (w, l) = small_workload();
        for attr in w.space.ids() {
            let mut clusters: Vec<u32> = l
                .overlay()
                .live_nodes()
                .iter()
                .filter(|&n| l.directory(n).iter().any(|r| r.attr == attr))
                .map(|n| l.overlay().id_of(n).unwrap().cubical)
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            assert!(clusters.len() <= 1, "attribute {attr} spread over {clusters:?}");
        }
    }

    #[test]
    fn point_query_finds_exactly_matching_owners() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let q = w.random_query(1, QueryMix::NonRange, &mut rng);
            let sub = q.subs[0];
            let out = l.query_from(3, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, brute(&w, sub.attr, &sub.target), "point query {sub:?}");
        }
    }

    #[test]
    fn range_query_is_complete() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..200 {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            let sub = q.subs[0];
            let out = l.query_from(5, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, brute(&w, sub.attr, &sub.target), "range query {sub:?}");
        }
    }

    #[test]
    fn multi_attribute_join_intersects() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let q = w.random_query(3, QueryMix::Range, &mut rng);
            let out = l.query_from(0, &q).unwrap();
            let expected = grid_resource::discovery::join_owners(
                q.subs.iter().map(|s| brute(&w, s.attr, &s.target)).collect(),
            );
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn point_query_visits_one_node_per_attribute() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(10);
        for arity in [1usize, 4, 8] {
            let q = w.random_query(arity, QueryMix::NonRange, &mut rng);
            let out = l.query_from(1, &q).unwrap();
            assert_eq!(out.tally.visited, arity);
            assert_eq!(out.tally.lookups, arity);
        }
    }

    #[test]
    fn range_visits_bounded_by_cluster_size() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            let out = l.query_from(2, &q).unwrap();
            assert!(
                out.tally.visited <= 8,
                "range probes {} exceed cluster size d=8",
                out.tally.visited
            );
        }
    }

    #[test]
    fn average_range_visits_near_one_plus_quarter_d() {
        // Theorem 4.9: LORM visits 1 + d/4 nodes per attribute on average
        // (3 for d = 8). Requires full clusters, as in the paper's setup.
        let (w, l) = full_workload();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut total = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            total += l.query_from(0, &q).unwrap().tally.visited;
        }
        let avg = total as f64 / trials as f64;
        assert!((2.0..4.2).contains(&avg), "avg range visits {avg}, expected ≈3");
    }

    #[test]
    fn full_domain_range_is_complete() {
        // Regression: when root(low) == root(high) but the range arc
        // covers the whole sector ring (e.g. two-member clusters), the
        // walk must still probe the interior members.
        let (w, l) = small_workload();
        let (dmin, dmax) = w.space.domain();
        for attr in w.space.ids() {
            let q = Query::new(vec![SubQuery {
                attr,
                target: ValueTarget::Range { low: dmin, high: dmax },
            }])
            .unwrap();
            let out = l.query_from(0, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            let t = ValueTarget::Range { low: dmin, high: dmax };
            assert_eq!(got, brute(&w, attr, &t), "full-domain range on {attr}");
        }
    }

    #[test]
    fn cached_range_walks_replay_the_direct_walks() {
        // LORM's arc is inclusive and the shared walk's span exclusive
        // (one past the arc): a walk stopped exactly at `hi` and every
        // narrower replay of a cached wider one must still equal the
        // direct walk, probe for probe.
        let (w, l) = full_workload();
        let mut cache = dht_core::RouteCache::new();
        let mut rng = SmallRng::seed_from_u64(15);
        let qs: Vec<Query> =
            (0..300).map(|_| w.random_query(1, QueryMix::Range, &mut rng)).collect();
        for _pass in 0..3 {
            for q in &qs {
                let direct = l.query_from(0, q).unwrap();
                let cached = l.query_from_cached(0, q, &mut cache).unwrap();
                assert_eq!(cached, direct, "{q:?}");
            }
        }
        assert!(cache.walk_hits() > 0, "repeated walks must replay");
    }

    #[test]
    fn register_routes_and_stores() {
        let (w, mut l) = small_workload();
        let before = l.total_pieces();
        let info = ResourceInfo { attr: AttrId(0), value: 42.0, owner: 17 };
        let t = l.register(info).unwrap();
        assert_eq!(l.total_pieces(), before + 1);
        assert_eq!(t.lookups, 1);
        // the new piece is findable
        let q = Query::new(vec![SubQuery { attr: AttrId(0), target: ValueTarget::Point(42.0) }])
            .unwrap();
        let out = l.query_from(0, &q).unwrap();
        assert!(out.owners.contains(&17));
        let _ = w;
    }

    #[test]
    fn register_from_departed_owner_errors() {
        let (_, mut l) = small_workload();
        l.leave_physical(100).unwrap();
        let info = ResourceInfo { attr: AttrId(1), value: 5.0, owner: 100 };
        assert!(l.register(info).is_err());
    }

    #[test]
    fn leave_hands_off_directory() {
        let (w, mut l) = small_workload();
        let victim_node = l.phys.node_of(200).unwrap();
        let victim_load = l.directory(victim_node).len();
        let total = l.total_pieces();
        l.leave_physical(200).unwrap();
        assert_eq!(l.total_pieces(), total, "handoff must not lose pieces");
        assert!(!l.is_live(200));
        assert_eq!(l.num_physical(), 511);
        let _ = (victim_load, w);
    }

    #[test]
    fn queries_survive_churn_with_repair() {
        let (w, mut l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(13);
        for i in 0..30 {
            if i % 2 == 0 {
                let _ = l.join_physical(&mut rng);
            } else {
                // pick a live physical node to remove
                let phys = (0..600).find(|&p| l.is_live(p)).unwrap();
                l.leave_physical(phys).unwrap();
            }
        }
        l.stabilize();
        l.place_all(&w.reports);
        let mut rng2 = SmallRng::seed_from_u64(14);
        for _ in 0..50 {
            let q = w.random_query(2, QueryMix::Range, &mut rng2);
            let phys = (0..600).rev().find(|&p| l.is_live(p)).unwrap();
            let out = l.query_from(phys, &q).unwrap();
            let expected = grid_resource::discovery::join_owners(
                q.subs.iter().map(|s| brute(&w, s.attr, &s.target)).collect(),
            );
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn outlinks_stay_constant() {
        let (_, l) = small_workload();
        let links = l.outlinks_per_node();
        assert!(links.max() <= 8.0, "constant degree violated: {}", links.max());
        assert!(links.mean() > 3.0);
    }

    #[test]
    fn total_loss_fails_every_remote_sub_query() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(22);
        let plan = FaultPlan::new(0xBAD, 1.0, 0.0).unwrap();
        let mut failed = 0usize;
        for i in 0..40u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let f = l.query(2, &q, QueryMode::Faulty(&plan, i)).unwrap();
            // Only a sub whose root happens to be the querier itself can
            // survive total loss (zero-hop lookup, but the walk probes
            // still all drop — so the walk stays at one node).
            assert!(f.subs_resolved <= f.subs_answered);
            assert!(f.dropped_msgs > 0);
            if f.is_failed() {
                failed += 1;
            }
        }
        assert!(failed >= 35, "total loss should fail nearly every query, failed={failed}");
    }

    #[test]
    fn faulty_queries_are_deterministic() {
        let (w, l) = small_workload();
        let plan = FaultPlan::new(0xFA11, 0.2, 0.1).unwrap();
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = SmallRng::seed_from_u64(23);
        for i in 0..30u64 {
            let qa = w.random_query(3, QueryMix::Range, &mut rng_a);
            let qb = w.random_query(3, QueryMix::Range, &mut rng_b);
            let a = l.query(4, &qa, QueryMode::Faulty(&plan, i)).unwrap();
            let b = l.query(4, &qb, QueryMode::Faulty(&plan, i)).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn moderate_loss_degrades_some_queries_without_errors() {
        let (w, l) = small_workload();
        let plan = FaultPlan::new(0xFA12, 0.2, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(24);
        let (mut complete, mut partial, mut failed) = (0usize, 0usize, 0usize);
        for i in 0..120u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let f = l.query(5, &q, QueryMode::Faulty(&plan, i)).unwrap();
            match (f.is_complete(), f.is_failed()) {
                (true, _) => complete += 1,
                (_, true) => failed += 1,
                _ => partial += 1,
            }
        }
        assert_eq!(complete + partial + failed, 120);
        assert!(complete > 0, "20% loss with retry should still complete some queries");
        assert!(partial + failed > 0, "20% loss should degrade some queries");
    }

    #[test]
    fn replicated_pieces_survive_single_failures_between_repairs() {
        // Full occupancy: every cluster has all d = 8 members, so every
        // root has a live leaf-set replica target. With degree 2 and one
        // failure per repair window no piece can be lost. (At partial
        // occupancy single-member clusters have no replica target — the
        // durability sweep measures exactly that exposure.)
        let (_, mut l) = full_workload();
        l.set_replication(2);
        assert_eq!(l.replication(), 2);
        let mut initial = Vec::new();
        l.surviving_pieces_into(&mut initial);
        grid_resource::canonicalize_pieces(&mut initial);
        assert!(!initial.is_empty());
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for round in 0..10 {
            let phys = loop {
                let p = rand::Rng::gen_range(&mut rng, 0..2048);
                if l.is_live(p) {
                    break p;
                }
            };
            l.fail_physical(phys).unwrap();
            l.stabilize();
            let mut now = Vec::new();
            l.surviving_pieces_into(&mut now);
            grid_resource::canonicalize_pieces(&mut now);
            assert_eq!(
                grid_resource::count_surviving(&initial, &now),
                initial.len(),
                "pieces lost in round {round}"
            );
        }
        assert!(l.repair_stats().transfers() > 0, "repair must have moved copies");
    }

    #[test]
    fn k1_replication_stays_a_no_op() {
        let (_, mut l) = small_workload();
        let mut before = Vec::new();
        l.surviving_pieces_into(&mut before);
        l.set_replication(1);
        l.stabilize();
        assert_eq!(l.replication(), 1);
        assert_eq!(l.repair_stats().rounds(), 0);
        let mut after = Vec::new();
        l.surviving_pieces_into(&mut after);
        assert_eq!(after, before);
    }

    #[test]
    fn directory_balance_beats_centralization() {
        // All information of an attribute spreads over its cluster's d
        // nodes, so the 99th percentile stays well below "everything on
        // one node" (k pieces, what SWORD would do). Theorem 4.4.
        let (w, l) = full_workload();
        let loads = l.directory_loads();
        let k = w.config().values_per_attr as f64;
        assert!(loads.p99() < k / 2.0, "p99 {} should be well below k = {k}", loads.p99());
    }
}
