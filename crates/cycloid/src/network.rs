//! The Cycloid network: slot arena, cluster bookkeeping, churn, repair.

use crate::id::CycloidId;
use crate::node::CycloidNode;
use dht_core::{
    arena_has_capacity, reserve_slack, DhtError, Link, NodeIdx, NodeList, Overlay, RouteSink,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Construction parameters for a [`Cycloid`] overlay.
#[derive(Debug, Clone, Copy)]
pub struct CycloidConfig {
    /// Dimension `d`: clusters hold up to `d` nodes, there are `2^d`
    /// clusters, and the identifier space holds `d·2^d` slots. The paper's
    /// evaluation uses `d = 8` (2048 slots).
    pub dimension: u8,
    /// Seed for slot assignment.
    pub seed: u64,
}

impl Default for CycloidConfig {
    fn default() -> Self {
        Self { dimension: 8, seed: 0x0C1C101D }
    }
}

/// A Cycloid overlay network.
///
/// Nodes live in an arena; departed nodes are tomb-stoned. Two ground-truth
/// tables answer [`Overlay::owner_of`]: `slots`, one 4 B [`Link`] per
/// identifier, whose row of `d` slots per cluster is also that cluster's
/// member list ([`Cycloid::cluster_members`]), and `occupied`, the
/// non-empty clusters. Their readers are every route's `exact` flag and
/// every placement, leave handoff and replica promotion, besides
/// construction and link repair. Routing decisions never read them: a hop
/// reads only the local state of the node holding the message.
///
/// ```
/// use cycloid::{Cycloid, CycloidConfig, CycloidId};
/// use dht_core::Overlay;
///
/// // a full d = 5 Cycloid: 5·2^5 = 160 nodes in 32 clusters of 5
/// let net = Cycloid::build(160, CycloidConfig { dimension: 5, seed: 1 });
/// assert_eq!(net.occupied_clusters().len(), 32);
///
/// let key = CycloidId::new(2, 17, 5); // (cyclic, cubical)
/// let from = net.live_nodes().at(0);
/// let route = net.route(from, key).unwrap();
/// assert!(route.exact);
/// assert!(route.hops() <= 3 * 5, "paths are O(d)");
/// ```
#[derive(Debug, Clone)]
pub struct Cycloid {
    pub(crate) nodes: Vec<CycloidNode>,
    cfg: CycloidConfig,
    /// Slot -> node, ground truth. Length `d·2^d`, in slot order
    /// ([`CycloidId::slot`]): cluster `c`'s members sit in `slots[c*d..]`
    /// at their cyclic indices.
    slots: Vec<Link>,
    /// Sorted cubical indices of non-empty clusters.
    occupied: Vec<u32>,
    /// Arena slots of all live nodes, ascending. Maintained
    /// incrementally (arena indices grow monotonically, so `occupy`
    /// appends and `vacate` binary-searches) so [`Overlay::live_nodes`]
    /// is a borrow, not a full-arena scan-and-collect. It and `nodes`
    /// grow by [`reserve_slack`]'s rule, an eighth when full.
    live_sorted: Vec<u32>,
    live: usize,
    rng: SmallRng,
    /// Mutation epoch: strictly increases on every write to routing state
    /// (membership tables, per-node links). The route
    /// cache stamps entries with it; see [`Overlay::epoch`]. Starts at 1
    /// so the cache can use 0 as its empty-slot sentinel. A cache must
    /// serve a single overlay instance — two clones that diverge after
    /// copying the same epoch must not share one.
    epoch: u64,
}

impl Cycloid {
    /// An empty overlay of the given dimension.
    pub fn new(cfg: CycloidConfig) -> Self {
        let cap = cfg.dimension as usize * (1usize << cfg.dimension);
        Self {
            nodes: Vec::new(),
            cfg,
            slots: vec![Link::NONE; cap],
            occupied: Vec::new(),
            live_sorted: Vec::new(),
            live: 0,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xCAB005E),
            epoch: 1,
        }
    }

    /// Advance the mutation epoch. Every function that writes routing
    /// state calls this (the `epoch-bump` lint enforces it); redundant
    /// bumps along one public operation are harmless — only strict
    /// increase matters.
    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Bulk-construct a fully repaired network of `n ≤ d·2^d` nodes on
    /// uniformly random distinct slots (all slots when `n` equals the
    /// capacity, as in the paper's 2048-node setup with `d = 8`). The
    /// result is the overlay one `occupy` per drawn slot — the runtime
    /// join's insert, shifting the sorted `occupied` list on every first
    /// member, O(n·2^d) aggregate — would assemble (pinned by a unit test
    /// against exactly that).
    ///
    /// # Panics
    /// Panics if `n` exceeds the identifier-space capacity.
    pub fn build(n: usize, cfg: CycloidConfig) -> Self {
        let mut net = Self::new(cfg);
        let slots = net.draw_slots(n);
        net.bulk_occupy(&slots);
        net.rebuild_all_links();
        debug_assert_eq!(net.check_invariants(), Ok(()));
        net
    }

    /// The first `n` slots of a partial Fisher-Yates shuffle of all slot
    /// numbers: a uniform sample without replacement, in draw order.
    ///
    /// # Panics
    /// Panics if `n` exceeds the identifier-space capacity.
    fn draw_slots(&mut self, n: usize) -> Vec<usize> {
        let cap = self.capacity();
        assert!(n <= cap, "cannot place {n} nodes in {cap} Cycloid slots");
        let mut slots: Vec<usize> = (0..cap).collect();
        for i in 0..n {
            let j = self.rng.gen_range(i..cap);
            slots.swap(i, j);
        }
        slots.truncate(n);
        slots
    }

    /// Assemble the membership tables in one pass: push the arena rows in
    /// draw order (as one `occupy` per slot would), then list the non-empty
    /// clusters in one scan of `slots` — O(n + d·2^d) where per-slot
    /// `occupy` calls shift the sorted occupied list on every first member.
    fn bulk_occupy(&mut self, draw: &[usize]) {
        self.bump_epoch();
        let d = self.cfg.dimension;
        self.nodes.reserve(draw.len());
        self.live_sorted.reserve(draw.len());
        for &s in draw {
            self.push_node(CycloidId::from_slot(s, d));
        }
        self.live = draw.len();
        self.occupied = (0..1u32 << d).filter(|&c| !self.cluster_members(c).is_empty()).collect();
    }

    /// Total number of identifier slots (`d·2^d`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The dimension `d`.
    pub fn dimension(&self) -> u8 {
        self.cfg.dimension
    }

    /// Configuration the network was built with.
    pub fn config(&self) -> &CycloidConfig {
        &self.cfg
    }

    /// Append a live node on the free slot of `id` to the arena and, since
    /// arena indices only grow, to the end of the ascending live list.
    ///
    /// # Panics
    /// If the arena would exceed `u32` slot range (links and the live list
    /// store `u32` slots).
    fn push_node(&mut self, id: CycloidId) -> NodeIdx {
        assert!(arena_has_capacity(self.nodes.len(), 1), "arena exceeds u32 slot range");
        self.bump_epoch();
        let s = id.slot(self.cfg.dimension);
        debug_assert_eq!(self.slots[s], Link::NONE);
        let idx = NodeIdx(self.nodes.len());
        reserve_slack(&mut self.nodes, 1);
        reserve_slack(&mut self.live_sorted, 1);
        self.nodes.push(CycloidNode::new(id));
        self.live_sorted.push(idx.0 as u32);
        self.slots[s] = Link::new(idx);
        idx
    }

    fn occupy(&mut self, id: CycloidId) -> NodeIdx {
        self.bump_epoch();
        let first = self.cluster_members(id.cubical).is_empty();
        let idx = self.push_node(id);
        if first {
            let cpos = self.occupied.partition_point(|&c| c < id.cubical);
            self.occupied.insert(cpos, id.cubical);
        }
        debug_assert_eq!(self.check_cluster(id.cubical), Ok(()));
        self.live += 1;
        idx
    }

    fn vacate(&mut self, idx: NodeIdx) {
        self.bump_epoch();
        let id = self.nodes[idx.0].id;
        let d = self.cfg.dimension;
        self.nodes[idx.0].alive = false;
        self.slots[id.slot(d)] = Link::NONE;
        if self.cluster_members(id.cubical).is_empty() {
            if let Ok(p) = self.occupied.binary_search(&id.cubical) {
                self.occupied.remove(p);
            }
        }
        if let Ok(p) = self.live_sorted.binary_search(&(idx.0 as u32)) {
            self.live_sorted.remove(p);
        }
        self.live -= 1;
        debug_assert_eq!(self.check_cluster(id.cubical), Ok(()));
    }

    /// Check the ground-truth tables against each other and against the
    /// arena, in O(d·2^d + arena) time:
    ///
    /// * `slots[s]` links `i` exactly for the live nodes `i` on slot `s`;
    /// * `occupied` is exactly the sorted list of non-empty clusters;
    /// * `live_sorted` and `live` agree with the arena's liveness flags.
    ///
    /// [`Self::build`] runs it under `debug_assert!`; `occupy` and `vacate`
    /// check the cluster they touch.
    ///
    /// # Errors
    /// The first violation found, described.
    pub fn check_invariants(&self) -> Result<(), String> {
        let d = self.cfg.dimension;
        let live: Vec<NodeIdx> =
            (0..self.nodes.len()).map(NodeIdx).filter(|&i| self.nodes[i.0].alive).collect();
        if !self.live_nodes().iter().eq(live.iter().copied()) || self.live != live.len() {
            return Err(format!(
                "live list holds {} (count {}), the arena {} live nodes",
                self.live_sorted.len(),
                self.live,
                live.len()
            ));
        }
        for (s, held) in self.slots.iter().enumerate() {
            if let Some(i) = held.get() {
                if !self.nodes.get(i.0).is_some_and(|n| n.alive && n.id.slot(d) == s) {
                    return Err(format!("slot {s} holds node {}, not live there", i.0));
                }
            }
        }
        if let Some(&i) =
            live.iter().find(|&&i| self.slots[self.nodes[i.0].id.slot(d)].get() != Some(i))
        {
            return Err(format!("live node {} is missing from its slot", i.0));
        }
        let non_empty: Vec<u32> =
            (0..1u32 << d).filter(|&c| !self.cluster_members(c).is_empty()).collect();
        if self.occupied != non_empty {
            return Err(format!(
                "occupied lists {} clusters, {} are non-empty",
                self.occupied.len(),
                non_empty.len()
            ));
        }
        (0..1u32 << d).try_for_each(|c| self.check_cluster(c))
    }

    /// The O(d) part of [`Self::check_invariants`] for cluster `c`:
    /// `occupied` lists it exactly when it has members.
    fn check_cluster(&self, c: u32) -> Result<(), String> {
        let members = self.cluster_members(c);
        if self.occupied.binary_search(&c).is_ok() == members.is_empty() {
            return Err(format!(
                "cluster {c}: occupied list disagrees with {} members",
                members.len()
            ));
        }
        Ok(())
    }

    /// Borrow a node's state.
    pub fn node(&self, idx: NodeIdx) -> Result<&CycloidNode, DhtError> {
        self.nodes.get(idx.0).ok_or(DhtError::NodeNotFound { index: idx.0 })
    }

    pub(crate) fn live_node(&self, idx: NodeIdx) -> Result<&CycloidNode, DhtError> {
        let n = self.node(idx)?;
        if n.alive {
            Ok(n)
        } else {
            Err(DhtError::NodeNotFound { index: idx.0 })
        }
    }

    /// Identifier of `idx`.
    pub fn id_of(&self, idx: NodeIdx) -> Result<CycloidId, DhtError> {
        Ok(self.node(idx)?.id)
    }

    /// Members of cluster `cubical`, sorted by cyclic index (ground truth;
    /// read by link repair, ownership and replica placement, never by a
    /// routing decision). A borrow of the cluster's row of `slots`.
    pub fn cluster_members(&self, cubical: u32) -> ClusterMembers<'_> {
        let d = self.cfg.dimension as usize;
        ClusterMembers(&self.slots[cubical as usize * d..][..d])
    }

    /// Cubical indices of all non-empty clusters, sorted.
    pub fn occupied_clusters(&self) -> &[u32] {
        &self.occupied
    }

    /// Current primary (largest cyclic index) of cluster `cubical`.
    pub fn primary_of(&self, cubical: u32) -> Option<NodeIdx> {
        self.cluster_members(cubical).last()
    }

    /// Intra-cluster successor via the node-local inside leaf set.
    /// This is the link LORM's range forwarding walks.
    pub fn cluster_successor(&self, idx: NodeIdx) -> Result<Option<NodeIdx>, DhtError> {
        let n = self.live_node(idx)?;
        Ok(n.inside_succ.get().filter(|&s| self.nodes[s.0].alive))
    }

    /// Pick a uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        if self.live == 0 {
            return None;
        }
        loop {
            let i = rng.gen_range(0..self.nodes.len());
            if self.nodes[i].alive {
                return Some(NodeIdx(i));
            }
        }
    }

    /// Pick a uniformly random *free* slot, if any.
    pub fn random_free_slot<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CycloidId> {
        if self.live == self.capacity() {
            return None;
        }
        loop {
            let s = rng.gen_range(0..self.slots.len());
            if self.slots[s] == Link::NONE {
                return Some(CycloidId::from_slot(s, self.cfg.dimension));
            }
        }
    }

    // ------------------------------------------------------------------
    // Ground-truth ownership (consistent-hashing assignment)
    // ------------------------------------------------------------------

    /// The occupied cluster nearest to `b` on the large cycle; ties broken
    /// towards the cluster reached *clockwise* from `b`. A cluster with
    /// members is its own answer (one scan of its `slots` row, the cache
    /// line [`Self::nearest_in_cluster`] reads next); an empty one takes a
    /// binary search of `occupied`.
    pub fn nearest_occupied_cluster(&self, b: u32) -> Result<u32, DhtError> {
        if !self.cluster_members(b).is_empty() {
            return Ok(b);
        }
        if self.occupied.is_empty() {
            return Err(DhtError::EmptyOverlay);
        }
        let d = self.cfg.dimension;
        let n = self.occupied.len();
        let pos = self.occupied.partition_point(|&c| c < b);
        let next = self.occupied[pos % n]; // first >= b (wrapping)
        let prev = self.occupied[(pos + n - 1) % n]; // last < b (wrapping)
        let dn = CycloidId::cluster_dist(b, next, d);
        let dp = CycloidId::cluster_dist(b, prev, d);
        if dn <= dp {
            // covers the tie: `next` is the clockwise-side cluster
            Ok(next)
        } else {
            Ok(prev)
        }
    }

    /// The member of cluster `c` nearest to cyclic position `l`; ties
    /// broken towards the node reached clockwise from `l`. Probes the
    /// cluster's row of `slots` outward from `l`: at distance `k`, position
    /// `l + k` before `l - k` (both mod `d`). A full cluster answers on the
    /// first probe, any cluster within `d`.
    pub fn nearest_in_cluster(&self, c: u32, l: u8) -> Option<NodeIdx> {
        let d = self.cfg.dimension as usize;
        let l = l as usize;
        debug_assert!(l < d, "cyclic index {l} out of range for d={d}");
        let row = &self.slots[c as usize * d..][..d];
        (0..=d / 2).find_map(|k| {
            let cw = if l + k >= d { l + k - d } else { l + k };
            let ccw = if l >= k { l - k } else { l + d - k };
            row[cw].get().or(row[ccw].get())
        })
    }

    // ------------------------------------------------------------------
    // Link construction / repair
    // ------------------------------------------------------------------

    /// Resolve the node nearest an ideal identifier (link maintenance).
    fn resolve(&self, ideal: CycloidId) -> Option<NodeIdx> {
        let c = self.nearest_occupied_cluster(ideal.cubical).ok()?;
        self.nearest_in_cluster(c, ideal.cyclic)
    }

    /// Recompute the full routing state of every live node from ground
    /// truth — the simulator's "perfect stabilization" tick, also used by
    /// `build`.
    pub fn rebuild_all_links(&mut self) {
        // Owned snapshot: rebuilding mutates node state while iterating.
        let indices = self.live_nodes().to_vec();
        for idx in indices {
            self.rebuild_links_of(idx);
        }
    }

    /// Recompute one node's links from ground truth (the effect of that
    /// node running its own maintenance round).
    pub fn rebuild_links_of(&mut self, idx: NodeIdx) {
        self.bump_epoch();
        let d = self.cfg.dimension;
        let id = self.nodes[idx.0].id;
        let ring = self.cluster_members(id.cubical).after(id.cyclic);
        let inside_succ = ring.clone().next();
        let inside_pred = ring.last();
        let primary = self.primary_of(id.cubical);

        // Outside leaf set: primaries of adjacent occupied clusters.
        let (outside_pred, outside_succ) = {
            let occ = &self.occupied;
            let n = occ.len();
            if n <= 1 {
                (None, None)
            } else {
                let p = occ
                    .binary_search(&id.cubical)
                    // lint:allow(panic-hygiene): this node is alive in its
                    // cluster, so occupy() has listed the cluster in
                    // `occupied` (removed only when the last member goes).
                    .expect("own cluster occupied");
                let succ_c = occ[(p + 1) % n];
                let pred_c = occ[(p + n - 1) % n];
                (self.primary_of(pred_c), self.primary_of(succ_c))
            }
        };

        let k = id.cyclic;
        let down = (k + d - 1) % d;
        let mask = ((1u64 << d) - 1) as u32;
        let jump = 1u32 << k;
        let cubical_target = CycloidId { cyclic: down, cubical: id.cubical ^ jump };
        let cyc_minus = CycloidId { cyclic: down, cubical: id.cubical.wrapping_sub(jump) & mask };
        let cyc_plus = CycloidId { cyclic: down, cubical: id.cubical.wrapping_add(jump) & mask };
        let cubical_nbr = self.resolve(cubical_target).filter(|&x| x != idx);
        let cyclic_nbrs = [
            self.resolve(cyc_minus).filter(|&x| x != idx),
            self.resolve(cyc_plus).filter(|&x| x != idx),
        ];

        let node = &mut self.nodes[idx.0];
        node.inside_pred = inside_pred.into();
        node.inside_succ = inside_succ.into();
        node.outside_pred = outside_pred.into();
        node.outside_succ = outside_succ.into();
        node.cubical_nbr = cubical_nbr.into();
        node.cyclic_nbrs = cyclic_nbrs.map(Link::from);
        node.primary = primary.into();
    }

    /// Repair the *local neighborhood* of cluster `c`: inside leaf sets and
    /// primary caches of its members, plus the outside leaf sets of the two
    /// adjacent occupied clusters. This is the bounded self-organization a
    /// join/leave triggers in the real protocol.
    fn repair_cluster_neighborhood(&mut self, c: u32) {
        let members = self.cluster_members(c).to_vec();
        for idx in members {
            self.rebuild_links_of(idx);
        }
        let occ = self.occupied.clone();
        let n = occ.len();
        if n > 1 {
            let p = match occ.binary_search(&c) {
                Ok(p) | Err(p) => p % n,
            };
            for adj in [occ[(p + 1) % n], occ[(p + n - 1) % n]] {
                let adj_members = self.cluster_members(adj).to_vec();
                for idx in adj_members {
                    self.rebuild_links_of(idx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Join a new node on a uniformly random free slot.
    ///
    /// # Errors
    /// [`DhtError::IdSpaceExhausted`] when every slot is occupied.
    pub fn join_random(&mut self) -> Result<NodeIdx, DhtError> {
        let mut rng = self.rng.clone();
        let id = self.random_free_slot(&mut rng).ok_or(DhtError::IdSpaceExhausted)?;
        self.rng = rng;
        self.join_with_id(id)
    }

    /// Join a new node on an explicit free slot.
    pub fn join_with_id(&mut self, id: CycloidId) -> Result<NodeIdx, DhtError> {
        let d = self.cfg.dimension;
        if id.cyclic >= d || (id.cubical as u64) >= (1u64 << d) {
            return Err(DhtError::InvalidParameter {
                what: "CycloidId out of range for dimension",
            });
        }
        if self.slots[id.slot(d)].is_some() {
            return Err(DhtError::IdSpaceExhausted);
        }
        let idx = self.occupy(id);
        self.repair_cluster_neighborhood(id.cubical);
        Ok(idx)
    }

    /// Graceful departure: the node hands off, its cluster neighborhood
    /// repairs immediately, and — as in Cycloid's self-organization — it
    /// notifies every node holding a link to it so they re-resolve.
    pub fn leave(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.live_node(idx)?;
        let c = self.nodes[idx.0].id.cubical;
        self.vacate(idx);
        self.repair_cluster_neighborhood(c);
        // Notify in-neighbors (the departing node knows them in the real
        // protocol; the simulator finds them by scanning the live list).
        let in_neighbors: Vec<NodeIdx> = self
            .live_nodes()
            .iter()
            .filter(|&j| self.nodes[j.0].all_links().any(|l| l == idx))
            .collect();
        for j in in_neighbors {
            self.rebuild_links_of(j);
        }
        Ok(())
    }

    /// Abrupt failure: the node vanishes; neighbors' links stay stale until
    /// the next repair round.
    pub fn fail(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.live_node(idx)?;
        self.vacate(idx);
        Ok(())
    }
}

/// The members of one cluster in cyclic order: a borrow of the cluster's
/// row of the slot table, its empty slots skipped. Every method is O(d).
#[derive(Debug, Clone, Copy)]
pub struct ClusterMembers<'a>(&'a [Link]);

impl<'a> ClusterMembers<'a> {
    /// The members, by ascending cyclic index.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = NodeIdx> + Clone + 'a {
        self.0.iter().filter_map(|l| l.get())
    }

    /// The members, collected.
    pub fn to_vec(self) -> Vec<NodeIdx> {
        self.iter().collect()
    }

    /// The number of members.
    pub fn len(self) -> usize {
        self.0.iter().filter(|l| l.is_some()).count()
    }

    /// Does the cluster have no members?
    pub fn is_empty(self) -> bool {
        !self.0.iter().any(|l| l.is_some())
    }

    /// The member with the largest cyclic index: the cluster's primary.
    pub fn last(self) -> Option<NodeIdx> {
        self.iter().next_back()
    }

    /// The members after cyclic index `cyclic` in ring order, wrapping:
    /// those above it ascending, then those below it. The member at
    /// `cyclic` itself is never among them.
    pub fn after(self, cyclic: u8) -> impl DoubleEndedIterator<Item = NodeIdx> + Clone + 'a {
        let (below, from) = self.0.split_at(cyclic as usize);
        from[1..].iter().chain(below).filter_map(|l| l.get())
    }
}

impl Overlay for Cycloid {
    type Key = CycloidId;

    fn len(&self) -> usize {
        self.live
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn live_nodes(&self) -> NodeList<'_> {
        NodeList::new(&self.live_sorted)
    }

    fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    fn is_alive(&self, idx: NodeIdx) -> bool {
        self.nodes.get(idx.0).is_some_and(|n| n.alive)
    }

    /// Append up to `k - 1` replica targets for live node `idx`: the next
    /// members of its own cluster in cyclic order (leaf-set placement),
    /// wrapping around, never `idx` itself. A cluster smaller than `k`
    /// caps the target set at its size — replication is best-effort
    /// within the leaf set, exactly like a short successor list.
    ///
    /// The result at degree `k` is a prefix of the result at `k + 1`
    /// (the members after `idx` are one fixed order), which makes piece
    /// survival monotone in the replication degree.
    fn replica_targets_into(
        &self,
        idx: NodeIdx,
        k: usize,
        out: &mut Vec<NodeIdx>,
    ) -> Result<(), DhtError> {
        let id = self.live_node(idx)?.id;
        out.extend(self.cluster_members(id.cubical).after(id.cyclic).take(k.saturating_sub(1)));
        Ok(())
    }

    fn owner_of(&self, key: CycloidId) -> Result<NodeIdx, DhtError> {
        let c = self.nearest_occupied_cluster(key.cubical)?;
        self.nearest_in_cluster(c, key.cyclic).ok_or(DhtError::EmptyOverlay)
    }

    fn route_budget(&self) -> usize {
        8 * self.dimension() as usize + 32
    }

    fn route_with<S: RouteSink>(
        &self,
        from: NodeIdx,
        key: CycloidId,
        sink: &mut S,
    ) -> Result<(NodeIdx, bool), DhtError> {
        self.route_inner(from, key, sink)
    }

    fn outlinks(&self, node: NodeIdx) -> Result<usize, DhtError> {
        let n = self.live_node(node)?;
        Ok(n.distinct_neighbors(node).iter().filter(|&&x| self.nodes[x.0].alive).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize, d: u8) -> Cycloid {
        Cycloid::build(n, CycloidConfig { dimension: d, seed: 7 })
    }

    #[test]
    fn full_build_occupies_every_slot() {
        let c = net(2048, 8);
        assert_eq!(c.len(), 2048);
        assert_eq!(c.capacity(), 2048);
        assert_eq!(c.occupied_clusters().len(), 256);
        for cub in 0..256u32 {
            assert_eq!(c.cluster_members(cub).len(), 8);
        }
    }

    #[test]
    fn bulk_build_equals_one_occupy_per_node() {
        // The reference assembly: the same slot draw, landed one runtime
        // `occupy` at a time.
        for (n, d) in [(1usize, 4u8), (13, 4), (500, 8), (2048, 8)] {
            let cfg = CycloidConfig { dimension: d, seed: 7 };
            let bulk = Cycloid::build(n, cfg);
            let mut inc = Cycloid::new(cfg);
            for s in inc.draw_slots(n) {
                inc.occupy(CycloidId::from_slot(s, d));
            }
            inc.rebuild_all_links();
            assert_eq!(bulk.nodes, inc.nodes, "arena diverged at n={n} d={d}");
            assert_eq!(bulk.slots, inc.slots);
            assert_eq!(bulk.occupied, inc.occupied);
            assert_eq!(bulk.live_sorted, inc.live_sorted);
        }
    }

    #[test]
    fn sparse_build_has_requested_size() {
        let c = net(500, 8);
        assert_eq!(c.len(), 500);
        let total: usize = (0..256u32).map(|cub| c.cluster_members(cub).len()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overfull_build_panics() {
        let _ = net(2049, 8);
    }

    #[test]
    fn outlinks_do_not_grow_with_network_size() {
        let avg = |c: &Cycloid| {
            let nodes = c.live_nodes();
            nodes.iter().map(|i| c.outlinks(i).unwrap()).sum::<usize>() as f64 / nodes.len() as f64
        };
        let small = net(5 * 32, 5); // d=5
        let large = net(2048, 8); // d=8
        let (a, b) = (avg(&small), avg(&large));
        assert!((a - b).abs() < 2.0, "constant degree: {a} vs {b}");
    }

    #[test]
    fn inside_ring_is_cyclic_order() {
        let c = net(2048, 8);
        for cub in [0u32, 17, 255] {
            let members = c.cluster_members(cub).to_vec();
            for (i, &m) in members.iter().enumerate() {
                let succ = c.node(m).unwrap().inside_succ().unwrap();
                assert_eq!(succ, members[(i + 1) % members.len()]);
                let pred = c.node(m).unwrap().inside_pred().unwrap();
                assert_eq!(pred, members[(i + members.len() - 1) % members.len()]);
            }
        }
    }

    #[test]
    fn primary_is_max_cyclic_member() {
        let c = net(1500, 8);
        for &cub in c.occupied_clusters() {
            let members = c.cluster_members(cub);
            let primary = c.primary_of(cub).unwrap();
            let max_cyc = members.iter().map(|m| c.id_of(m).unwrap().cyclic).max().unwrap();
            assert_eq!(c.id_of(primary).unwrap().cyclic, max_cyc);
            for m in members.iter() {
                assert_eq!(c.node(m).unwrap().primary(), Some(primary));
            }
        }
    }

    #[test]
    fn outside_leafs_point_to_adjacent_occupied_primaries() {
        let c = net(700, 8);
        let occ = c.occupied_clusters().to_vec();
        for (p, &cub) in occ.iter().enumerate() {
            let succ_c = occ[(p + 1) % occ.len()];
            let pred_c = occ[(p + occ.len() - 1) % occ.len()];
            for m in c.cluster_members(cub).iter() {
                let (op, os) = c.node(m).unwrap().outside_leaf();
                assert_eq!(os, c.primary_of(succ_c));
                assert_eq!(op, c.primary_of(pred_c));
            }
        }
    }

    #[test]
    fn owner_of_empty_cluster_goes_to_nearest() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 4, seed: 1 });
        // occupy only cluster 3 (cyclic 0) and cluster 10 (cyclic 2)
        let a = c.join_with_id(CycloidId::new(0, 3, 4)).unwrap();
        let b = c.join_with_id(CycloidId::new(2, 10, 4)).unwrap();
        // cluster 4 is distance 1 from 3, distance 6 from 10
        let key = CycloidId::new(1, 4, 4);
        assert_eq!(c.owner_of(key).unwrap(), a);
        // cluster 8 is distance 5 from 3 (cw 5... ccw 11), distance 2 from 10
        let key = CycloidId::new(1, 8, 4);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn owner_tie_breaks_clockwise() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 4, seed: 1 });
        let _a = c.join_with_id(CycloidId::new(0, 2, 4)).unwrap();
        let b = c.join_with_id(CycloidId::new(0, 6, 4)).unwrap();
        // key cluster 4 is equidistant (2) from clusters 2 and 6; clockwise
        // from 4 reaches 6 first.
        let key = CycloidId::new(0, 4, 4);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn cyclic_tie_breaks_clockwise_within_cluster() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 8, seed: 1 });
        let _a = c.join_with_id(CycloidId::new(1, 0, 8)).unwrap();
        let b = c.join_with_id(CycloidId::new(5, 0, 8)).unwrap();
        // key cyclic 3 is equidistant (2) from cyclic 1 and 5; clockwise
        // from 3 reaches 5 first.
        let key = CycloidId::new(3, 0, 8);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn join_duplicate_slot_rejected() {
        let mut c = net(100, 8);
        let idx = c.live_nodes().at(0);
        let id = c.id_of(idx).unwrap();
        assert_eq!(c.join_with_id(id), Err(DhtError::IdSpaceExhausted));
    }

    #[test]
    fn join_random_fails_when_full() {
        let mut c = net(2048, 8);
        assert_eq!(c.join_random().unwrap_err(), DhtError::IdSpaceExhausted);
    }

    #[test]
    fn leave_repairs_primary_cache() {
        let mut c = net(2048, 8);
        let cub = 42u32;
        let primary = c.primary_of(cub).unwrap();
        c.leave(primary).unwrap();
        let new_primary = c.primary_of(cub).unwrap();
        assert_ne!(new_primary, primary);
        for m in c.cluster_members(cub).iter() {
            assert_eq!(c.node(m).unwrap().primary(), Some(new_primary));
        }
    }

    #[test]
    fn fail_leaves_stale_links_until_rebuild() {
        let mut c = net(2048, 8);
        let cub = 7u32;
        let victim = c.cluster_members(cub).iter().next().unwrap();
        let succ_of_victim = c.node(victim).unwrap().inside_succ().unwrap();
        c.fail(victim).unwrap();
        // stale: the successor still lists the dead victim as pred
        assert_eq!(c.node(succ_of_victim).unwrap().inside_pred(), Some(victim));
        c.rebuild_all_links();
        assert_ne!(c.node(succ_of_victim).unwrap().inside_pred(), Some(victim));
    }

    #[test]
    fn random_node_is_always_alive() {
        let mut c = net(64, 5);
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let v = c.random_node(&mut r).unwrap();
            c.fail(v).unwrap();
        }
        for _ in 0..100 {
            let v = c.random_node(&mut r).unwrap();
            assert!(c.node(v).unwrap().is_alive());
        }
    }
}
