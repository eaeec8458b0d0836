//! The one Chord-hosted discovery system.
//!
//! §IV describes Mercury, SWORD and MAAN by the same recipe: Chord ring(s)
//! with a directory on every node, and a rule for which key(s) a piece
//! `⟨a, π_a, ip_addr⟩` is stored and looked up under. [`ChordSystem`] is
//! the recipe, written once; a [`KeyScheme`] is the rule. `Sword`, `Maan`,
//! `Mercury` and `CompositeFlat` are this struct under their four schemes.

use crate::host::ChordHost;
use chord::Chord;
use dht_core::{
    hashing::splitmix64, in_interval_oc, DhtError, LoadDist, LookupTally, Overlay, RepairStats, Via,
};
use grid_resource::{
    AttrId, AttributeSpace, PhysMap, PieceKey, QueryOutcome, ResourceDiscovery, ResourceInfo,
    SelectivityEstimator, SubQuery, SubState, ValueTarget,
};
use rand::rngs::SmallRng;

/// Which key(s) a piece is stored and looked up under — all that tells
/// the Chord-hosted systems apart. A piece registers under exactly the
/// keys a point query for it looks up: [`Self::attr_key`] if there is
/// one, then [`Self::key_of`].
pub trait KeyScheme: Clone + Send + Sync + 'static {
    /// Construction parameters (`SwordConfig { seed }`, …).
    type Config;

    /// Short system name used in reports.
    const NAME: &'static str;

    /// One ring per attribute (Mercury's hubs) rather than one for all.
    const HUB_PER_ATTRIBUTE: bool = false;

    /// Does a range walk clockwise from the root of its low end's key to
    /// its high end's? `false`: the root alone answers (SWORD pools a
    /// whole attribute there).
    const WALKS: bool = true;

    /// Derive the scheme's hash tables for `space`.
    fn new(space: &AttributeSpace, cfg: &Self::Config) -> Self;

    /// The experiment seed in `cfg`; ring `h` is built from
    /// `seed ^ h·φ64`, which is the seed itself for the first ring.
    fn seed(cfg: &Self::Config) -> u64;

    /// A key every piece of `attr` registers under *besides* its own, and
    /// every sub-query on `attr` looks up first (MAAN's attribute
    /// registration). The owners never depend on that lookup: losing it
    /// degrades the sub-query, nothing more.
    fn attr_key(&self, _attr: AttrId) -> Option<u64> {
        None
    }

    /// The key of `⟨attr, value⟩` on `attr`'s ring: where the piece lives,
    /// what a point query looks up, and the ends of a range walk.
    fn key_of(&self, attr: AttrId, value: f64) -> u64;
}

/// The key(s) `info` registers under, in registration order.
fn piece_keys<S: KeyScheme>(scheme: &S, info: &ResourceInfo) -> impl Iterator<Item = u64> {
    scheme.attr_key(info.attr).into_iter().chain([scheme.key_of(info.attr, info.value)])
}

/// A discovery system on Chord ring(s): every physical node is a member of
/// every ring (at the same arena slot — rings are built and churned in
/// lock-step), and `S` decides where pieces go.
#[derive(Clone)]
pub struct ChordSystem<S: KeyScheme> {
    hubs: Vec<ChordHost>,
    pub(crate) scheme: S,
    phys: PhysMap,
    /// Per-attribute value histograms for the adaptive query plan.
    sel: SelectivityEstimator,
}

impl<S: KeyScheme> ChordSystem<S> {
    /// Build a system of `n` physical nodes.
    ///
    /// Memory scales with rings × `n`; Mercury's 200×2048 setup holds
    /// about 59 MB, more than half of it finger windows of ≈ 23 levels. For
    /// outlink measurements at larger `n`, build rings one at a time
    /// instead (see `sim`'s Figure 3(a) harness).
    pub fn new(n: usize, space: &AttributeSpace, cfg: S::Config) -> Self {
        let rings = if S::HUB_PER_ATTRIBUTE { space.len() } else { 1 };
        let ring_seed = |h: usize| S::seed(&cfg) ^ (h as u64).wrapping_mul(0x9e3779b97f4a7c15);
        Self {
            hubs: (0..rings).map(|h| ChordHost::build(n, ring_seed(h))).collect(),
            scheme: S::new(space, &cfg),
            phys: PhysMap::identity(n),
            sel: SelectivityEstimator::new(space),
        }
    }

    /// Index of the ring holding `attr`'s pieces. Rings share one route
    /// cache, so the index doubles as the cache salt: equal `(from, key)`
    /// pairs on different rings never alias.
    fn hub_of(attr: AttrId) -> usize {
        if S::HUB_PER_ATTRIBUTE {
            attr.0 as usize
        } else {
            0
        }
    }

    /// Number of rings (`m` for Mercury, 1 otherwise).
    pub fn num_hubs(&self) -> usize {
        self.hubs.len()
    }

    /// The ring holding `attr`'s pieces (read-only).
    pub fn hub(&self, attr: AttrId) -> &ChordHost {
        &self.hubs[Self::hub_of(attr)]
    }

    /// The first ring — *the* ring of a single-ring system (read-only, for
    /// tests and inspection).
    pub fn host(&self) -> &ChordHost {
        &self.hubs[0]
    }
}

impl<S: KeyScheme> ResourceDiscovery for ChordSystem<S> {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn num_physical(&self) -> usize {
        self.phys.num_live()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys.is_live(phys)
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        for hub in &mut self.hubs {
            hub.clear();
        }
        self.sel.rebuild(reports);
        // Every registration of every report, bucketed per ring: each ring
        // sees its pieces in report order, so its directories are those of
        // a per-report loop.
        let per_ring = reports.len() / self.hubs.len().max(1);
        let mut items: Vec<Vec<(u64, ResourceInfo)>> =
            self.hubs.iter().map(|_| Vec::with_capacity(per_ring)).collect();
        for &r in reports {
            items[Self::hub_of(r.attr)].extend(piece_keys(&self.scheme, &r).map(|key| (key, r)));
        }
        for (hub, items) in self.hubs.iter_mut().zip(items) {
            hub.store_all_at_owners(items);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.phys.node_of(info.owner)?;
        let hub = &mut self.hubs[Self::hub_of(info.attr)];
        let mut tally = LookupTally::default();
        for key in piece_keys(&self.scheme, &info) {
            tally.hops += hub.store_routed(from, key, info)?.hops;
            tally.lookups += 1;
            tally.visited += 1;
        }
        // A routed insert touches one ring's directories and nothing else.
        debug_assert_eq!(hub.check_invariants(), Ok(()));
        self.sel.record(&info);
        Ok(tally)
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
        let h = Self::hub_of(sub.attr);
        let (hub, salt) = (&self.hubs[h], h as u64);
        let (lo, hi) = match sub.target {
            ValueTarget::Range { low, high } if S::WALKS => (low, Some(high)),
            ValueTarget::Range { low: v, .. } | ValueTarget::Point(v) => (v, None),
        };
        let mut degraded = false;
        if let Some(attr_key) = self.scheme.attr_key(sub.attr) {
            // Existence/metadata lookup: losing it degrades the sub-query
            // (metadata unavailable), but the lookup below can still
            // produce the owners.
            out.tally.lookups += 1;
            match via.route_stats(hub.net(), from, attr_key, splitmix64(msg)) {
                Ok(r) => {
                    out.tally.hops += r.hops;
                    out.tally.visited += 1;
                    out.probed.push(r.terminal);
                }
                Err(DhtError::MessageDropped { hops } | DhtError::DeadHop { hops }) => {
                    out.tally.hops += hops;
                    degraded = true;
                }
                Err(e) => return Err(e),
            }
        }
        // Without this lookup the sub-query has no owners at all.
        let lo_key = self.scheme.key_of(sub.attr, lo);
        out.tally.lookups += 1;
        let route = via.route_stats(hub.net(), from, lo_key, msg)?;
        out.tally.hops += route.hops;
        let first = out.probed.len();
        match hi {
            // The root holds everything that can match: no probing, and
            // no walk a fault could truncate.
            None => out.probed.push(route.terminal),
            Some(hi) => {
                let hi_key = self.scheme.key_of(sub.attr, hi);
                degraded |= hub.walk_range_via(
                    route.terminal,
                    lo_key,
                    hi_key,
                    salt,
                    msg,
                    via,
                    &mut out.probed,
                );
            }
        }
        out.tally.visited += out.probed.len() - first;
        for &node in &out.probed[first..] {
            hub.directory(node).matching_owners_into(sub.attr, &sub.target, &mut out.owners);
        }
        out.tally.matches += out.owners.len();
        Ok(if degraded { SubState::Degraded } else { SubState::Resolved })
    }

    fn directory_loads(&self) -> LoadDist {
        // Per *physical* node: its directories summed over all rings.
        let load = |n| self.hubs.iter().map(|h| h.directory(n).len()).sum::<usize>() as f64;
        LoadDist::new(self.phys.live().map(load).collect())
    }

    fn total_pieces(&self) -> usize {
        self.hubs.iter().map(|h| h.total_pieces()).sum()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        // Per physical node: routing state summed over all rings.
        let links = |n| self.hubs.iter().map(|h| h.net().outlinks(n).unwrap_or(0)).sum::<usize>();
        LoadDist::new(self.phys.live().map(|n| links(n) as f64).collect())
    }

    fn join_physical(&mut self, _rng: &mut SmallRng) -> Result<usize, DhtError> {
        let boot = self.phys.live().next().ok_or(DhtError::EmptyOverlay)?;
        let mut joined = None;
        for h in 0..self.hubs.len() {
            match self.hubs[h].update_net(|net| net.join(boot)) {
                Ok(idx) => {
                    debug_assert!(joined.is_none_or(|prev| prev == idx), "rings out of lock-step");
                    joined = Some(idx);
                }
                Err(e) => {
                    // Roll the partial join back so ring arenas stay in
                    // lock-step: tombstone the new node where it joined,
                    // and reserve a dead slot where it did not.
                    for (g, hub) in self.hubs.iter_mut().enumerate() {
                        match joined {
                            Some(idx) if g < h => {
                                let _ = hub.update_net(|net| net.fail(idx));
                            }
                            Some(idx) => {
                                let reserved = hub.update_net(Chord::reserve_tombstone);
                                debug_assert_eq!(reserved, idx);
                            }
                            None => {}
                        }
                    }
                    return Err(e);
                }
            }
        }
        let phys = self.phys.push(joined.ok_or(DhtError::EmptyOverlay)?);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.phys.node_of(phys)?;
        let mut keys: Vec<u64> = Vec::new();
        for hub in &mut self.hubs {
            // Capture the departing node's key interval (pred, me] *before*
            // the ring splices it out, so a copy of a piece registered
            // under several keys can be attributed to the registration it
            // was stored under.
            let my_id = hub.net().id_of(node)?;
            let pred_id = hub.net().node(node)?.predecessor().and_then(|p| hub.net().id_of(p).ok());
            let owned = |key: u64| pred_id.is_none_or(|p| in_interval_oc(p, my_id, key));
            let handoff = hub.retire(node);
            hub.update_net(|net| net.leave(node))?;
            // A piece both of whose registrations lived here appears twice
            // in the handoff; alternate attribution so one copy lands under
            // each key. Sorted flat Vec as a set: handoffs are one
            // directory's worth of pieces.
            let mut placed_first: Vec<PieceKey> = Vec::new();
            let scheme = &self.scheme;
            hub.store_all_at_owners(handoff.into_iter().map(|info| {
                keys.clear();
                keys.extend(piece_keys(scheme, &info));
                let mut mine = keys.iter().copied().filter(|&k| owned(k));
                let key = match (mine.next(), mine.next()) {
                    (Some(only), None) => only,
                    // several (or indeterminate): first copy to the first
                    // key's root, later copies to the last key's
                    _ => match placed_first.binary_search(&PieceKey::of(&info)) {
                        Err(pos) => {
                            placed_first.insert(pos, PieceKey::of(&info));
                            keys[0]
                        }
                        Ok(_) => keys[keys.len() - 1],
                    },
                };
                (key, info)
            }));
        }
        self.phys.remove(phys);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.phys.node_of(phys)?;
        for hub in &mut self.hubs {
            let _lost = hub.retire(node);
            hub.update_net(|net| net.fail(node))?;
        }
        self.phys.remove(phys);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    fn stabilize(&mut self) {
        // The simulator's maintenance tick: perfect repair from ground
        // truth (the protocol-level stabilize/fix_fingers path is
        // exercised by the chord crate's own tests; with m rings it would
        // route m·n·64 lookups per tick), then replica repair over the
        // freshly repaired successor lists, ring by ring: promotions
        // reroute within the ring under the piece's own key(s).
        let scheme = &self.scheme;
        for hub in &mut self.hubs {
            hub.update_net(Chord::rebuild_all_state);
            hub.repair_replicas_with(|info, keys| keys.extend(piece_keys(scheme, info)));
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn set_replication(&mut self, k: usize) {
        let scheme = &self.scheme;
        for hub in &mut self.hubs {
            hub.set_replication_with(k, |info, keys| keys.extend(piece_keys(scheme, info)));
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn replication(&self) -> usize {
        self.hubs.first().map_or(1, |h| h.replication())
    }

    fn repair_stats(&self) -> RepairStats {
        let mut total = RepairStats::new();
        for hub in &self.hubs {
            total.merge(&hub.repair_stats());
        }
        total
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        // A piece survives if any ring still reaches it; duplicates across
        // registrations collapse when the caller canonicalizes.
        for hub in &self.hubs {
            hub.surviving_pieces_into(out);
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        let arena = self.hubs.first().map_or(0, |h| h.net().arena_len());
        for (h, hub) in self.hubs.iter().enumerate() {
            let ring = |e| format!("ring {h}: {e}");
            hub.check_invariants().map_err(ring)?;
            self.phys.check_mounted_on(hub.net()).map_err(ring)?;
            if hub.net().arena_len() != arena {
                return Err(ring(format!("arena {} vs {arena}", hub.net().arena_len())));
            }
        }
        Ok(())
    }
}
