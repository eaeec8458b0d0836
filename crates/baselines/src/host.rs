//! A Chord ring with a directory on every node — the building block
//! shared by all Chord-hosted systems.

use chord::{Chord, ChordConfig};
use dht_core::{clockwise_dist, Advance, NodeIdx, Overlay, Via, WalkMemo};
use grid_resource::Host;
use std::ops::{Deref, DerefMut};

/// One Chord overlay with a resource-information directory on every node:
/// the shared [`Host`] store path (directories, replica stores along
/// successor lists, repair — reached through `Deref`) plus the one thing
/// only a ring can do, the clockwise range walk.
///
/// `Sword`, `Maan` and `CompositeFlat` own one; `Mercury` owns one per
/// attribute hub.
#[derive(Debug, Clone)]
pub struct ChordHost(Host<Chord>);

impl Deref for ChordHost {
    type Target = Host<Chord>;
    fn deref(&self) -> &Host<Chord> {
        &self.0
    }
}

impl DerefMut for ChordHost {
    fn deref_mut(&mut self) -> &mut Host<Chord> {
        &mut self.0
    }
}

impl ChordHost {
    /// Build a stabilized host of `n` nodes.
    pub(crate) fn build(n: usize, seed: u64) -> Self {
        Self(Host::new(Chord::build(n, ChordConfig { seed, ..ChordConfig::default() })))
    }

    /// Clockwise range walk: starting at the root of `lo_key`, probe
    /// successive nodes until the first node at-or-past `hi_key` on the
    /// directed arc from `lo_key` — the system-wide range probe of Mercury
    /// and MAAN — appending the probed nodes to `out`.
    ///
    /// The directed-arc criterion (rather than "stop at the root of
    /// `hi_key`") matters when the arc wraps past the largest identifier:
    /// `root(lo)` and `root(hi)` can then coincide while every node in
    /// between still holds matching values. The walk stops early if
    /// pointers are broken (churn) or after a full circle.
    pub fn walk_range_into(
        &self,
        start: NodeIdx,
        lo_key: u64,
        hi_key: u64,
        out: &mut Vec<NodeIdx>,
    ) {
        self.walk_range_via(start, lo_key, hi_key, 0, 0, &mut Via::Direct, out);
    }

    /// [`Self::walk_range_into`] as a [`Via::walk`] whose messages travel
    /// `via`: every advance to the next clockwise node is a probe message
    /// of the walk that follows lookup `msg`, and a cached walk is keyed
    /// by `salt` (Mercury passes the hub index; single-ring systems pass
    /// 0), its start and `lo_key`. Returns `true` when a fault truncated
    /// the walk before the arc was covered.
    ///
    /// A node covers keys up to its own id, so the stop rule tests the
    /// *current* node: once it sits at or past `hi_key` (walking clockwise
    /// from `lo_key`) the arc is covered, and each step records the
    /// distance of the node that admitted it.
    #[allow(clippy::too_many_arguments)] // the plain walk plus the (salt, msg, via) triple
    pub(crate) fn walk_range_via(
        &self,
        start: NodeIdx,
        lo_key: u64,
        hi_key: u64,
        salt: u64,
        msg: u64,
        via: &mut Via<'_>,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        let net = self.net();
        let span = clockwise_dist(lo_key, hi_key);
        let memo = WalkMemo { salt, lo: lo_key, span, epoch: net.epoch() };
        via.walk(
            start,
            net.len(),
            msg,
            Some(memo),
            |cur| {
                let Ok(id) = net.id_of(cur) else {
                    return Advance::End;
                };
                let dist = clockwise_dist(lo_key, id);
                if dist >= span {
                    return Advance::Covered;
                }
                match net.next_clockwise(cur) {
                    Ok(node) if node != start => Advance::To { node, dist },
                    _ => Advance::End,
                }
            },
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::{FaultAccount, FaultPlan, RouteCache};
    use grid_resource::{AttrId, ResourceInfo, ValueTarget};

    fn info(owner: usize) -> ResourceInfo {
        ResourceInfo { attr: AttrId(0), value: 1.0, owner }
    }

    fn walk(h: &ChordHost, start: NodeIdx, lo: u64, hi: u64) -> Vec<NodeIdx> {
        let mut probed = Vec::new();
        h.walk_range_into(start, lo, hi, &mut probed);
        probed
    }

    fn cached_walk(
        h: &ChordHost,
        start: NodeIdx,
        lo: u64,
        hi: u64,
        cache: &mut RouteCache,
    ) -> Vec<NodeIdx> {
        let mut probed = Vec::new();
        assert!(!h.walk_range_via(start, lo, hi, 0, 0, &mut Via::Cached(cache), &mut probed));
        probed
    }

    #[test]
    fn store_at_owner_places_on_root() {
        let mut h = ChordHost::build(64, 1);
        h.store_all_at_owners([(12345, info(7))]);
        assert_eq!(h.directory(h.net().owner_of(12345).unwrap()).len(), 1);
        assert_eq!(h.total_pieces(), 1);
    }

    #[test]
    fn store_routed_reaches_same_root() {
        let mut h = ChordHost::build(64, 2);
        let from = h.net().nodes_by_id().at(0);
        let r = h.store_routed(from, 999, info(3)).unwrap();
        assert_eq!(r.terminal, h.net().owner_of(999).unwrap());
        assert_eq!(h.total_pieces(), 1);
    }

    #[test]
    fn matches_filter_by_attr_and_value() {
        let mut h = ChordHost::build(16, 3);
        h.store_all_at_owners([
            (5, ResourceInfo { attr: AttrId(1), value: 10.0, owner: 4 }),
            (5, ResourceInfo { attr: AttrId(2), value: 10.0, owner: 9 }),
        ]);
        let root = h.net().owner_of(5).unwrap();
        let m = h.directory(root).matching_owners(AttrId(1), &ValueTarget::Point(10.0));
        assert_eq!(m, vec![4]);
        let none = h.directory(root).matching_owners(AttrId(1), &ValueTarget::Point(11.0));
        assert!(none.is_empty());
    }

    #[test]
    fn walk_covers_arc_to_root() {
        let h = ChordHost::build(128, 4);
        let start_key = 0u64;
        let hi_key = u64::MAX / 4; // a quarter of the ring
        let start = h.net().owner_of(start_key).unwrap();
        let walk = walk(&h, start, start_key, hi_key);
        // expect roughly n/4 = 32 nodes, generously banded
        assert!((20..=45).contains(&walk.len()), "walk length {}", walk.len());
        assert_eq!(*walk.last().unwrap(), h.net().owner_of(hi_key).unwrap());
        // nodes are consecutive on the ring
        for w in walk.windows(2) {
            assert_eq!(h.net().next_clockwise(w[0]).unwrap(), w[1]);
        }
    }

    #[test]
    fn walk_to_own_key_is_single_probe() {
        let h = ChordHost::build(32, 5);
        let root = h.net().owner_of(777).unwrap();
        let walk = walk(&h, root, 776, 777);
        assert_eq!(walk, vec![root]);
    }

    #[test]
    fn walk_ending_on_a_node_id_stops_at_that_node() {
        // A node covers keys up to its own id: an arc ending exactly on
        // it is covered there, without probing its successor.
        let h = ChordHost::build(32, 5);
        let node = h.net().nodes_by_id().at(7);
        let id = h.net().id_of(node).unwrap();
        assert_eq!(h.net().owner_of(id - 1).unwrap(), node, "gap below the node");
        assert_eq!(walk(&h, node, id - 1, id), vec![node]);
    }

    #[test]
    fn full_ring_walk_probes_every_node() {
        // Regression: a range spanning the whole key space has
        // root(lo) == root(hi), but must still probe all n nodes.
        let h = ChordHost::build(64, 8);
        let start = h.net().owner_of(0).unwrap();
        let walk = walk(&h, start, 0, u64::MAX);
        assert_eq!(walk.len(), 64);
    }

    #[test]
    fn cached_walk_matches_plain_walk() {
        let h = ChordHost::build(128, 4);
        let start = h.net().owner_of(0).unwrap();
        let mut cache = RouteCache::new();
        // Two-touch admission: the first sighting runs plain (and is
        // still byte-identical), the second records...
        let primed = cached_walk(&h, start, 0, u64::MAX / 2, &mut cache);
        let first = cached_walk(&h, start, 0, u64::MAX / 2, &mut cache);
        assert_eq!(primed, first);
        assert_eq!(first, walk(&h, start, 0, u64::MAX / 2));
        // ...and narrower spans replay from it, byte-identical.
        for hi in [u64::MAX / 8, u64::MAX / 4, u64::MAX / 2] {
            assert_eq!(cached_walk(&h, start, 0, hi, &mut cache), walk(&h, start, 0, hi));
        }
        assert_eq!(cache.walk_hits(), 3, "every narrower span replays from cache");
    }

    #[test]
    fn exhaustion_terminated_walk_serves_any_span() {
        // A full-circle walk stopped for a span-independent reason emits
        // everything reachable: it must serve narrower queries too.
        let h = ChordHost::build(64, 8);
        let start = h.net().owner_of(0).unwrap();
        let mut cache = RouteCache::new();
        // Twice: the first sighting only stamps the admission candidate.
        cached_walk(&h, start, 0, u64::MAX, &mut cache);
        let full = cached_walk(&h, start, 0, u64::MAX, &mut cache);
        assert_eq!(full.len(), 64);
        let quarter = cached_walk(&h, start, 0, u64::MAX / 4, &mut cache);
        assert_eq!(quarter, walk(&h, start, 0, u64::MAX / 4));
        assert_eq!(cache.walk_hits(), 1);
    }

    #[test]
    fn churn_invalidates_cached_walks() {
        let mut h = ChordHost::build(64, 9);
        let start = h.net().owner_of(0).unwrap();
        let mut cache = RouteCache::new();
        let before = cached_walk(&h, start, 0, u64::MAX / 4, &mut cache);
        // Kill a node on the walked arc and repair: the epoch moved, so
        // the stale segment must re-walk, matching the fresh plain walk.
        let victim = before[1];
        h.update_net(|net| net.fail(victim)).unwrap();
        h.update_net(Chord::rebuild_all_state);
        let hits_before = cache.walk_hits();
        let after = cached_walk(&h, start, 0, u64::MAX / 4, &mut cache);
        assert_eq!(cache.walk_hits(), hits_before, "stale epoch cannot hit");
        assert_eq!(after, walk(&h, start, 0, u64::MAX / 4));
        assert!(!after.contains(&victim));
    }

    #[test]
    fn inert_faulty_walk_matches_plain_walk() {
        let h = ChordHost::build(128, 4);
        let start = h.net().owner_of(0).unwrap();
        let plan = FaultPlan::none();
        let mut via = Via::faulty(&plan, 9);
        let mut faulty = Vec::new();
        let truncated = h.walk_range_via(start, 0, u64::MAX / 4, 0, 9, &mut via, &mut faulty);
        assert!(!truncated);
        assert_eq!(faulty, walk(&h, start, 0, u64::MAX / 4));
        assert_eq!(via.account(), FaultAccount::default());
    }

    #[test]
    fn total_loss_truncates_walk_at_start() {
        let h = ChordHost::build(128, 4);
        let start = h.net().owner_of(0).unwrap();
        let plan = FaultPlan::new(1, 1.0, 0.0).unwrap();
        let mut via = Via::faulty(&plan, 9);
        let mut probed = Vec::new();
        let truncated = h.walk_range_via(start, 0, u64::MAX / 4, 0, 9, &mut via, &mut probed);
        assert!(truncated);
        assert_eq!(probed, vec![start], "first probe drops twice: only the start is covered");
        assert_eq!(via.account().dropped_msgs, 2);
        assert_eq!(via.account().retries, 1);
    }

    #[test]
    fn batch_store_matches_one_routed_store_per_piece() {
        // Scrambled keys and duplicate destinations: one placement batch
        // (counting sort by destination, one sorted load per directory)
        // must leave every directory exactly as routing each piece to its
        // root and pushing it there does — the insert routed registrations
        // take at runtime.
        let pieces: Vec<(u64, ResourceInfo)> = (0..200u64)
            .map(|i| {
                let key = i.wrapping_mul(0x9e3779b97f4a7c15);
                (
                    key,
                    ResourceInfo {
                        attr: AttrId((i % 7) as u32),
                        value: (i % 13) as f64,
                        owner: i as usize,
                    },
                )
            })
            .collect();
        let mut one_by_one = ChordHost::build(64, 11);
        let mut batch = ChordHost::build(64, 11);
        let from = one_by_one.net().nodes_by_id().at(0);
        for &(key, info) in &pieces {
            one_by_one.store_routed(from, key, info).unwrap();
        }
        batch.store_all_at_owners(pieces.iter().copied());
        assert_eq!(one_by_one.total_pieces(), batch.total_pieces());
        for node in batch.net().live_nodes() {
            let a: Vec<ResourceInfo> = one_by_one.directory(node).iter().copied().collect();
            let b: Vec<ResourceInfo> = batch.directory(node).iter().copied().collect();
            assert_eq!(a, b, "directory of {node} diverged");
        }
    }

    #[test]
    fn drain_removes_pieces() {
        let mut h = ChordHost::build(8, 6);
        h.store_all_at_owners([(1, info(0))]);
        let root = h.net().owner_of(1).unwrap();
        let drained = h.retire(root);
        assert_eq!(drained.len(), 1);
        assert_eq!(h.total_pieces(), 0);
    }

    #[test]
    fn clear_resets_all() {
        let mut h = ChordHost::build(8, 7);
        h.store_all_at_owners([(1, info(0)), (2, info(1))]);
        h.clear();
        assert_eq!(h.total_pieces(), 0);
    }
}
