//! A Chord ring with a directory on every node — the building block
//! shared by all Chord-hosted systems.

use chord::{Chord, ChordConfig};
use dht_core::{BuildMode, NodeIdx, Overlay, Via, WalkStep};
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
    /// Build a stabilized host of `n` nodes; `mode` is how the ring is
    /// assembled and how placement batches land (both modes yield
    /// byte-identical hosts; see [`BuildMode`]).
    pub(crate) fn build_with_mode(n: usize, seed: u64, mode: BuildMode) -> Self {
        let net = Chord::build_with_mode(n, ChordConfig { seed, ..ChordConfig::default() }, mode);
        Self(Host::new(net, mode))
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

    /// [`Self::walk_range_into`] with the walk's messages travelling
    /// `via` — the host's one walk loop. Returns `true` when a fault
    /// truncated the walk before the arc was covered.
    ///
    /// Under faults every advance to the next clockwise node is a probe
    /// message of the walk that follows lookup `msg`, subject to
    /// [`Via::admit_step`].
    ///
    /// Through a cache the emission is identical by construction. A
    /// fresh-epoch segment cached for at least this span replays through
    /// the walk's own stop rule (`dist < span`); otherwise the walk runs
    /// for real and its emission is recorded. A walk that stopped for a
    /// span-*independent* reason (broken pointers, full circle, probe
    /// budget) emitted everything reachable from `start`, so it is cached
    /// with an unbounded span and replays exactly for wider queries too;
    /// only a walk stopped by the arc rule is bounded to the span it was
    /// run for. `salt` namespaces overlays sharing one cache (Mercury
    /// passes the hub index; single-ring systems pass 0).
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
        use dht_core::clockwise_dist;
        let net = self.net();
        let span = clockwise_dist(lo_key, hi_key);
        let epoch = net.epoch();
        out.push(start);
        let mut rec = None;
        if let Some(cache) = via.cache() {
            if let Some(steps) = cache.walk_lookup(salt, start, lo_key, span, epoch) {
                out.extend(steps.iter().take_while(|s| s.dist < span).map(|s| s.node));
                return false;
            }
            // Two-touch admission: a first-sighted key runs the walk plain
            // (recording a never-repeating walk is pure overhead); only a
            // repeat offender pays the per-step copy and gets cached.
            if cache.admit_walk(salt, start, lo_key, epoch) {
                rec = Some(cache.begin_walk());
            }
        }
        let mut cur = start;
        let budget = net.len();
        let mut rule_stop = false;
        let mut step = 0usize;
        for _ in 0..budget {
            let cur_id = match net.id_of(cur) {
                Ok(id) => id,
                Err(_) => break,
            };
            // `cur` covers keys up to its own id; once it sits at or past
            // hi (walking clockwise from lo), the arc is covered.
            let dist = clockwise_dist(lo_key, cur_id);
            if dist >= span {
                rule_stop = true;
                break;
            }
            match net.next_clockwise(cur) {
                Ok(next) if next != start => {
                    step += 1;
                    if !via.admit_step(msg, step, next) {
                        return true;
                    }
                    // Each step stores the distance of the node that
                    // admitted it — the quantity the stop rule tests.
                    if let Some(rec) = rec.as_mut() {
                        rec.push(WalkStep { node: next, dist });
                    }
                    out.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        if let (Some(rec), Some(cache)) = (rec, via.cache()) {
            let stored_span = if rule_stop { span } else { u64::MAX };
            cache.commit_walk(salt, start, lo_key, stored_span, epoch, rec);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::{FaultAccount, FaultPlan, RouteCache};
    use grid_resource::{AttrId, ResourceInfo, ValueTarget};

    fn build(n: usize, seed: u64) -> ChordHost {
        ChordHost::build_with_mode(n, seed, BuildMode::Bulk)
    }

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
        let mut h = build(64, 1);
        h.store_all_at_owners([(12345, info(7))]);
        assert_eq!(h.directory(h.net().owner_of(12345).unwrap()).len(), 1);
        assert_eq!(h.total_pieces(), 1);
    }

    #[test]
    fn store_routed_reaches_same_root() {
        let mut h = build(64, 2);
        let from = h.net().nodes_by_id()[0];
        let r = h.store_routed(from, 999, info(3)).unwrap();
        assert_eq!(r.terminal, h.net().owner_of(999).unwrap());
        assert_eq!(h.total_pieces(), 1);
    }

    #[test]
    fn matches_filter_by_attr_and_value() {
        let mut h = build(16, 3);
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
        let h = build(128, 4);
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
        let h = build(32, 5);
        let root = h.net().owner_of(777).unwrap();
        let walk = walk(&h, root, 776, 777);
        assert_eq!(walk, vec![root]);
    }

    #[test]
    fn full_ring_walk_probes_every_node() {
        // Regression: a range spanning the whole key space has
        // root(lo) == root(hi), but must still probe all n nodes.
        let h = build(64, 8);
        let start = h.net().owner_of(0).unwrap();
        let walk = walk(&h, start, 0, u64::MAX);
        assert_eq!(walk.len(), 64);
    }

    #[test]
    fn cached_walk_matches_plain_walk() {
        let h = build(128, 4);
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
        let h = build(64, 8);
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
        let mut h = build(64, 9);
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
        let h = build(128, 4);
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
        let h = build(128, 4);
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
    fn bulk_store_matches_sequential_store() {
        // Scrambled keys and duplicate destinations: the bulk path must
        // reproduce the per-item (`Incremental`) path's per-node
        // directories exactly.
        let pieces: Vec<(u64, ResourceInfo)> = (0..200u64)
            .map(|i| {
                let key = i.wrapping_mul(0x9e3779b97f4a7c15);
                (
                    key,
                    ResourceInfo {
                        attr: AttrId((i % 7) as u32),
                        value: i as f64,
                        owner: i as usize,
                    },
                )
            })
            .collect();
        let mut seq = ChordHost::build_with_mode(64, 11, BuildMode::Incremental);
        let mut bulk = build(64, 11);
        seq.store_all_at_owners(pieces.iter().copied());
        bulk.store_all_at_owners(pieces.iter().copied());
        assert_eq!(seq.total_pieces(), bulk.total_pieces());
        for &node in seq.net().live_nodes() {
            let a: Vec<usize> = seq.directory(node).iter().map(|r| r.owner).collect();
            let b: Vec<usize> = bulk.directory(node).iter().map(|r| r.owner).collect();
            assert_eq!(a, b, "directory of {node} diverged");
        }
    }

    #[test]
    fn drain_removes_pieces() {
        let mut h = build(8, 6);
        h.store_all_at_owners([(1, info(0))]);
        let root = h.net().owner_of(1).unwrap();
        let drained = h.retire(root);
        assert_eq!(drained.len(), 1);
        assert_eq!(h.total_pieces(), 0);
    }

    #[test]
    fn clear_resets_all() {
        let mut h = build(8, 7);
        h.store_all_at_owners([(1, info(0)), (2, info(1))]);
        h.clear();
        assert_eq!(h.total_pieces(), 0);
    }
}
