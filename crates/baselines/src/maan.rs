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

use crate::host::ChordHost;
use dht_core::{
    hashing::splitmix64, BuildMode, ConsistentHash, DhtError, LoadDist, LocalityHash, LookupTally,
    NodeIdx, Via,
};
use grid_resource::{
    AttrId, AttributeSpace, PieceKey, QueryOutcome, ResourceDiscovery, ResourceInfo,
    SelectivityEstimator, SubQuery, SubState, ValueTarget,
};
use rand::rngs::SmallRng;

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

/// The MAAN baseline system.
#[derive(Clone)]
pub struct Maan {
    host: ChordHost,
    attr_keys: Vec<u64>,
    lph: LocalityHash,
    phys_node: Vec<Option<NodeIdx>>,
    mode: BuildMode,
    /// Per-attribute value histograms for the adaptive query plan.
    sel: SelectivityEstimator,
}

impl Maan {
    /// Build a MAAN system of `n` physical nodes.
    pub fn new(n: usize, space: &AttributeSpace, cfg: MaanConfig) -> Self {
        Self::new_with_mode(n, space, cfg, BuildMode::Bulk)
    }

    /// Build with an explicit construction mode (overlay assembly and
    /// report placement; both modes are byte-identical, see [`BuildMode`]).
    pub fn new_with_mode(
        n: usize,
        space: &AttributeSpace,
        cfg: MaanConfig,
        mode: BuildMode,
    ) -> Self {
        let host = ChordHost::build_with_mode(n, cfg.seed, mode);
        let hash = ConsistentHash::new(cfg.seed);
        let attr_keys = space.ids().map(|a| hash.hash_str(space.name(a))).collect();
        // 0 span = the full 64-bit ring: the paper's system-wide value space.
        let lph = space.lph(0);
        Self {
            host,
            attr_keys,
            lph,
            phys_node: (0..n).map(|i| Some(NodeIdx(i))).collect(),
            mode,
            sel: SelectivityEstimator::new(space),
        }
    }

    /// The attribute-registration key.
    pub fn attr_key(&self, attr: AttrId) -> u64 {
        self.attr_keys[attr.0 as usize]
    }

    /// The value-registration key.
    pub fn value_key(&self, value: f64) -> u64 {
        self.lph.hash(value)
    }

    /// The underlying host (read-only).
    pub fn host(&self) -> &ChordHost {
        &self.host
    }

    fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.phys_node.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }
}

impl ResourceDiscovery for Maan {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "MAAN"
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
                // Two registrations per report, in the same per-report
                // attr-then-value order as the sequential path.
                let items: Vec<(u64, ResourceInfo)> = reports
                    .iter()
                    .flat_map(|&r| [(self.attr_key(r.attr), r), (self.value_key(r.value), r)])
                    .collect();
                self.host.store_all_at_owners(items);
            }
            BuildMode::Incremental => {
                for &r in reports {
                    let _ = self.host.store_at_owner(self.attr_key(r.attr), r);
                    let _ = self.host.store_at_owner(self.value_key(r.value), r);
                }
            }
        }
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.node_of(info.owner)?;
        let r1 = self.host.store_routed(from, self.attr_key(info.attr), info)?;
        let r2 = self.host.store_routed(from, self.value_key(info.value), info)?;
        self.sel.record(&info);
        Ok(LookupTally { hops: r1.hops + r2.hops, lookups: 2, visited: 2, matches: 0 })
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
        // Lookup 1: the attribute registration (existence/metadata).
        // Attribute and value keys share one ring, so one cache salt
        // serves both — the keys themselves disambiguate. Losing this
        // lookup degrades the sub-query (metadata unavailable), but the
        // value walk can still produce the owners.
        out.tally.lookups += 1;
        let attr_ok = match via.route_stats(
            self.host.net(),
            from,
            self.attr_key(sub.attr),
            0,
            splitmix64(msg),
        ) {
            Ok(r) => {
                out.tally.hops += r.hops;
                out.tally.visited += 1;
                out.probed.push(r.terminal);
                true
            }
            Err(DhtError::MessageDropped { hops } | DhtError::DeadHop { hops }) => {
                out.tally.hops += hops;
                false
            }
            Err(e) => return Err(e),
        };
        // Lookup 2: the value registration; ranges walk the ring.
        // Without it the sub-query has no owners at all.
        let (lo, hi) = match sub.target {
            ValueTarget::Point(v) => (v, None),
            ValueTarget::Range { low, high } => (low, Some(high)),
        };
        out.tally.lookups += 1;
        let value_route = via.route_stats(self.host.net(), from, self.value_key(lo), 0, msg)?;
        out.tally.hops += value_route.hops;
        let first = out.probed.len();
        let truncated = match hi {
            None => {
                out.probed.push(value_route.terminal);
                false
            }
            Some(h) => self.host.walk_range_via(
                value_route.terminal,
                self.value_key(lo),
                self.value_key(h),
                0,
                msg,
                via,
                &mut out.probed,
            ),
        };
        out.tally.visited += out.probed.len() - first;
        for &node in &out.probed[first..] {
            self.host.matches_in_into(node, sub.attr, &sub.target, &mut out.owners);
        }
        out.tally.matches += out.owners.len();
        Ok(if attr_ok && !truncated { SubState::Resolved } else { SubState::Degraded })
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
        // Capture the departing node's key interval (pred, me] *before*
        // the ring splices it out, so each drained copy can be attributed
        // to the registration (attribute or value) it was stored under.
        let my_id = self.host.net().id_of(node)?;
        let pred_id =
            self.host.net().node(node)?.predecessor().and_then(|p| self.host.net().id_of(p).ok());
        let handoff = self.host.drain_directory(node);
        self.host.clear_replicas_of(node);
        self.host.net_mut().leave(node)?;
        self.phys_node[phys] = None;
        // A piece stored under both keys appears twice in the handoff;
        // alternate attribution so exactly one copy lands under each key.
        // Sorted flat Vec as a set: handoffs are one directory's worth of
        // pieces, so binary-search + ordered insert beats a tree.
        let mut attr_placed: Vec<(u32, u64, usize)> = Vec::new();
        for info in handoff {
            let ak = self.attr_key(info.attr);
            let vk = self.value_key(info.value);
            let owned = |key: u64| match pred_id {
                Some(p) => dht_core::in_interval_oc(p, my_id, key),
                None => true,
            };
            let sig = (info.attr.0, info.value.to_bits(), info.owner);
            let key = match (owned(ak), owned(vk)) {
                (true, false) => ak,
                (false, true) => vk,
                // both (or indeterminate): first copy to the attribute
                // root, second to the value root
                _ => match attr_placed.binary_search(&sig) {
                    Err(pos) => {
                        attr_placed.insert(pos, sig);
                        ak
                    }
                    Ok(_) => vk,
                },
            };
            let _ = self.host.store_at_owner(key, info);
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
        // exercised by the chord crate's own tests), then replica repair.
        self.host.net_mut().rebuild_all_state();
        let attr_keys = &self.attr_keys;
        let lph = &self.lph;
        self.host.repair_replicas_with(&mut |info, keys| {
            // MAAN registers every piece twice: promoted replicas reroute
            // under both the attribute and the value key.
            keys.push(attr_keys[info.attr.0 as usize]);
            keys.push(lph.hash(info.value));
        });
    }

    fn set_replication(&mut self, k: usize) {
        let attr_keys = &self.attr_keys;
        let lph = &self.lph;
        self.host.set_replication_with(k, &mut |info, keys| {
            keys.push(attr_keys[info.attr.0 as usize]);
            keys.push(lph.hash(info.value));
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
    use dht_core::FaultPlan;
    use grid_resource::{
        discovery::join_owners, Query, QueryMix, QueryMode, Workload, WorkloadConfig,
    };
    use rand::SeedableRng;

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
