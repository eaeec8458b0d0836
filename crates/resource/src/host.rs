//! The store path every discovery system shares: one overlay with a
//! [`Directory`] (and, when replicating, a [`ReplicaStore`]) on every
//! node, and the map from physical grid machines onto overlay nodes.
//!
//! §III–IV of the paper describe LORM, Mercury, SWORD and MAAN by one
//! recipe — a DHT, a directory on every node, and a rule for which key(s)
//! a piece `⟨a, π_a, ip_addr⟩` is stored and looked up under. [`Host`] is
//! the first two parts, written once over any [`Overlay`]; the key rule is
//! what a system adds. Replica placement and maintenance follow Leslie et
//! al., "Reliable Data Storage in DHTs": one algorithm, parameterised only
//! by the overlay's neighbour set ([`Overlay::replica_targets_into`]).

use crate::directory::{sort_key, Directory};
use crate::model::ResourceInfo;
use crate::replication::{PieceKey, ReplicaStore};
use dht_core::{reserve_slack, DhtError, NodeIdx, Overlay, RepairStats, RouteStats};

/// Physical node → overlay node, for the dense `usize` ids that stand in
/// for the grid machines' IP addresses. A departed node keeps its id (ids
/// are never reused), so the map only grows.
#[derive(Debug, Clone)]
pub struct PhysMap {
    nodes: Vec<Option<NodeIdx>>,
    live: usize,
}

impl PhysMap {
    /// `n` physical nodes, node `p` mounted on arena slot `p` — how every
    /// system is constructed.
    pub fn identity(n: usize) -> Self {
        Self { nodes: (0..n).map(|i| Some(NodeIdx(i))).collect(), live: n }
    }

    /// The overlay node of a live physical node.
    pub fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.nodes.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }

    /// Is this physical node currently part of the system?
    pub fn is_live(&self, phys: usize) -> bool {
        self.node_of(phys).is_ok()
    }

    /// Number of live physical nodes (maintained, not counted).
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Overlay nodes of the live physical nodes, in physical-id order.
    pub fn live(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.nodes.iter().copied().flatten()
    }

    /// Mount a new physical node on `idx`; returns its id.
    pub fn push(&mut self, idx: NodeIdx) -> usize {
        reserve_slack(&mut self.nodes, 1);
        self.nodes.push(Some(idx));
        self.live += 1;
        self.nodes.len() - 1
    }

    /// Unmount a departed physical node (a no-op if it already left).
    pub fn remove(&mut self, phys: usize) {
        if self.nodes.get_mut(phys).and_then(Option::take).is_some() {
            self.live -= 1;
        }
    }

    /// The map and `net`'s membership agree: every mapped node is live in
    /// `net`, and `net` has no live node besides them.
    pub fn check_mounted_on(&self, net: &impl Overlay) -> Result<(), String> {
        if let Some(dead) = self.live().find(|&n| !net.is_alive(n)) {
            return Err(format!("a physical node maps to retired slot {dead}"));
        }
        if self.live != net.len() {
            return Err(format!("{} nodes mapped, {} live in the overlay", self.live, net.len()));
        }
        Ok(())
    }
}

/// One overlay with a resource-information directory on every node.
///
/// `Lorm` owns a `Host<Cycloid>`; the Chord-hosted systems own one
/// `Host<Chord>` per ring (one, except Mercury's one per attribute hub).
///
/// The host also carries the optional replication layer (degree `repl`):
/// per-node [`ReplicaStore`]s placed on the overlay's neighbour set,
/// repaired on demand by [`Host::repair_replicas_with`]. At the default
/// degree of 1 no replica state exists and every replication method is a
/// no-op, so unreplicated runs are byte-identical to builds without this
/// layer.
///
/// Systems place a report under system-specific keys (SWORD hashes the
/// attribute, MAAN both the attribute and the value, Mercury the value per
/// hub, LORM a Cycloid rescID), so the replication methods take a
/// `keys_of` callback that appends the key(s) of a piece — promotion later
/// reroutes by the same key.
#[derive(Debug, Clone)]
pub struct Host<O: Overlay> {
    net: O,
    dirs: Vec<Directory>,
    repl: usize,
    replicas: Vec<ReplicaStore<O::Key>>,
    repair: RepairStats,
}

impl<O: Overlay> Host<O> {
    /// Mount empty directories on every node of `net`.
    pub fn new(net: O) -> Self {
        let dirs = vec![Directory::new(); net.arena_len()];
        Self { net, dirs, repl: 1, replicas: Vec::new(), repair: RepairStats::new() }
    }

    /// The underlying overlay.
    pub fn net(&self) -> &O {
        &self.net
    }

    /// Run a membership or maintenance operation on the overlay, then
    /// grow storage to cover any arena slot it added, by the overlay
    /// arenas' rule ([`reserve_slack`]). The only way to mutate the
    /// overlay, so storage always covers the arena.
    pub fn update_net<R>(&mut self, op: impl FnOnce(&mut O) -> R) -> R {
        let out = op(&mut self.net);
        let arena = self.net.arena_len();
        let added = arena.saturating_sub(self.dirs.len());
        reserve_slack(&mut self.dirs, added);
        self.dirs.resize(arena, Directory::new());
        if self.repl > 1 {
            let added = arena.saturating_sub(self.replicas.len());
            reserve_slack(&mut self.replicas, added);
            self.replicas.resize(arena, ReplicaStore::new());
        }
        out
    }

    /// Clear every directory (and, when replicating, every replica store —
    /// a full re-placement invalidates old replica attribution; the next
    /// repair round re-seeds replicas from the new primaries).
    pub fn clear(&mut self) {
        self.dirs = vec![Directory::new(); self.net.arena_len()];
        if self.repl > 1 {
            self.replicas = vec![ReplicaStore::new(); self.net.arena_len()];
        }
    }

    /// Enable replication at degree `k`, seeding replica stores from the
    /// current primaries (seeding is initial placement, not repair — it is
    /// not counted in [`Self::repair_stats`]). `k <= 1` drops all replica
    /// state and disables the layer.
    pub fn set_replication_with(
        &mut self,
        k: usize,
        keys_of: impl FnMut(&ResourceInfo, &mut Vec<O::Key>),
    ) {
        self.repl = k.max(1);
        self.repair = RepairStats::new();
        if self.repl <= 1 {
            self.replicas = Vec::new();
            return;
        }
        self.replicas = vec![ReplicaStore::new(); self.net.arena_len()];
        self.replicate_primaries(keys_of, false);
    }

    /// The configured replication degree (1 = unreplicated).
    pub fn replication(&self) -> usize {
        self.repl
    }

    /// Cumulative replica-repair bandwidth counters.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// Copy every live primary piece to its current replica targets,
    /// skipping copies that already exist. With `account` the new copies
    /// are charged to [`Self::repair_stats`] (repair); without it they are
    /// free (initial seeding).
    fn replicate_primaries(
        &mut self,
        mut keys_of: impl FnMut(&ResourceInfo, &mut Vec<O::Key>),
        account: bool,
    ) {
        let mut targets: Vec<NodeIdx> = Vec::new();
        let mut keys: Vec<O::Key> = Vec::new();
        for p in self.net.live_nodes() {
            targets.clear();
            if self.net.replica_targets_into(p, self.repl, &mut targets).is_err()
                || targets.is_empty()
            {
                continue;
            }
            for info in self.dirs[p.0].iter() {
                keys.clear();
                keys_of(info, &mut keys);
                for &key in &keys {
                    for &t in &targets {
                        if self.replicas[t.0].insert(p, key, *info) && account {
                            self.repair.record_copy();
                        }
                    }
                }
            }
        }
    }

    /// One replica-repair round; call right after the overlay's own
    /// repair, while its neighbour sets are ground truth. Two phases, in
    /// order:
    ///
    /// 1. **Promote**: every replica whose primary died is re-stored at
    ///    the key's *current* owner (one transfer, counted as a
    ///    promotion) — unless the owner already holds the piece (graceful
    ///    handoff beat us to it; the stale entry is dropped free).
    /// 2. **Re-replicate**: every live primary piece — including the
    ///    pieces phase 1 just promoted — is copied to its current
    ///    targets where missing (counted as copies).
    ///
    /// No-op below degree 2.
    pub fn repair_replicas_with(&mut self, keys_of: impl FnMut(&ResourceInfo, &mut Vec<O::Key>)) {
        if self.repl <= 1 {
            return;
        }
        self.repair.record_round();
        let net = &self.net;
        for holder in 0..self.replicas.len() {
            if !net.is_alive(NodeIdx(holder)) {
                continue;
            }
            for e in self.replicas[holder].drain_dead(|p| net.is_alive(p)) {
                match net.owner_of(e.key) {
                    Ok(owner) if !self.dirs[owner.0].contains(&e.info) => {
                        self.dirs[owner.0].push(e.info);
                        self.repair.record_promotion();
                    }
                    _ => self.repair.record_dropped(),
                }
            }
        }
        self.replicate_primaries(keys_of, true);
    }

    /// Empty `node`'s stores ahead of its departure: its directory is
    /// returned (the handoff of a graceful leave; what a failure loses)
    /// and the replicas it held die with it. Replicas held elsewhere on
    /// its behalf are promoted or dropped by the next repair round.
    pub fn retire(&mut self, node: NodeIdx) -> Vec<ResourceInfo> {
        if let Some(store) = self.replicas.get_mut(node.0) {
            store.clear();
        }
        self.dirs[node.0].drain()
    }

    /// Append the piece identity of everything reachable on live nodes —
    /// primary directories and replica stores both. Callers canonicalize
    /// (sort + dedup).
    pub fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        for n in self.net.live_nodes() {
            out.extend(self.dirs[n.0].iter().map(PieceKey::of));
            if let Some(store) = self.replicas.get(n.0) {
                store.keys_into(out);
            }
        }
    }

    /// Replica store of one node (inspection/tests).
    pub fn replicas_of(&self, node: NodeIdx) -> Option<&ReplicaStore<O::Key>> {
        self.replicas.get(node.0)
    }

    /// Store a batch (a periodic report refresh, a departure's handoff) at
    /// the ground-truth owners of its keys. Items whose key cannot be
    /// resolved (empty overlay) are skipped.
    ///
    /// The batch is grouped by destination with a counting sort over the
    /// arena slots it spans into one scratch buffer; each node's group is
    /// ordered by the directory's integer key and lands through one merge
    /// per attribute. A directory's order is a function of what it holds
    /// (see [`Directory`]), so the hosts this leaves are those of one
    /// push per item, in any order.
    pub fn store_all_at_owners(&mut self, items: impl IntoIterator<Item = (O::Key, ResourceInfo)>) {
        let items = items.into_iter();
        // `filter_map` hints a lower bound of 0: size the batch from the
        // input instead of growing it by doubling.
        let mut routed: Vec<(NodeIdx, ResourceInfo)> = Vec::with_capacity(items.size_hint().0);
        routed.extend(items.filter_map(|(key, info)| Some((self.net.owner_of(key).ok()?, info))));
        let Some(&(_, filler)) = routed.first() else {
            return;
        };
        // Only the slots between the lowest and the highest destination
        // take part: a handoff lands on a neighbour or two, a placement
        // round on the whole arena.
        let (lo, hi) = routed
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &(root, _)| (lo.min(root.0), hi.max(root.0)));
        // `bounds[s - lo]` counts slot `s`'s group, then (running sum) is
        // where it starts, then (scatter) where it ends.
        let mut bounds = vec![0usize; hi - lo + 1];
        for &(root, _) in &routed {
            bounds[root.0 - lo] += 1;
        }
        let mut start = 0;
        for bound in &mut bounds {
            start += std::mem::replace(bound, start);
        }
        let mut grouped = vec![filler; routed.len()];
        for &(root, info) in &routed {
            let next = &mut bounds[root.0 - lo];
            grouped[*next] = info;
            *next += 1;
        }
        // One copy of the batch is live while the directories grow.
        drop(routed);
        let mut start = 0;
        for (dir, &end) in self.dirs[lo..=hi].iter_mut().zip(&bounds) {
            if start < end {
                let group = &mut grouped[start..end];
                group.sort_unstable_by_key(sort_key);
                dir.load_sorted(group);
                start = end;
            }
        }
    }

    /// Store by routing from `from` (the per-report insert path). Returns
    /// the route's `(hops, terminal, exact)` summary — the insert path
    /// never needs the traced hop list.
    pub fn store_routed(
        &mut self,
        from: NodeIdx,
        key: O::Key,
        info: ResourceInfo,
    ) -> Result<RouteStats, DhtError> {
        let route = self.net.route_stats(from, key)?;
        self.dirs[route.terminal.0].push(info);
        Ok(route)
    }

    /// Directory of one node (for inspection).
    pub fn directory(&self, node: NodeIdx) -> &Directory {
        &self.dirs[node.0]
    }

    /// Total pieces stored on all nodes.
    pub fn total_pieces(&self) -> usize {
        self.dirs.iter().map(Directory::len).sum()
    }

    /// What must hold after every mutating operation: directory (and,
    /// when replicating, replica) storage covers the arena exactly, every
    /// directory keeps its own invariants, and a retired slot holds neither
    /// primaries nor replicas — its stores died with the node. Replicas
    /// held *for* a dead primary are legitimate until the next repair round
    /// (Krishnamurthy et al.'s staleness window), so they are not checked
    /// here. O(arena + pieces).
    pub fn check_invariants(&self) -> Result<(), String> {
        let arena = self.net.arena_len();
        if self.dirs.len() != arena {
            return Err(format!("{} directories for an arena of {arena}", self.dirs.len()));
        }
        let want_stores = if self.repl > 1 { arena } else { 0 };
        if self.replicas.len() != want_stores {
            return Err(format!(
                "{} replica stores at degree {}, arena {arena}",
                self.replicas.len(),
                self.repl
            ));
        }
        for (slot, dir) in self.dirs.iter().enumerate() {
            dir.check_invariants().map_err(|e| format!("directory of slot {slot}: {e}"))?;
        }
        for slot in (0..arena).map(NodeIdx).filter(|&n| !self.net.is_alive(n)) {
            if !self.dirs[slot.0].is_empty() {
                return Err(format!("retired slot {slot} still holds primaries"));
            }
            if self.replicas.get(slot.0).is_some_and(|s| !s.is_empty()) {
                return Err(format!("retired slot {slot} still holds replicas"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_map_tracks_membership_and_live_count() {
        let mut m = PhysMap::identity(3);
        assert_eq!(m.num_live(), 3);
        assert_eq!(m.node_of(2).unwrap(), NodeIdx(2));
        assert_eq!(m.push(NodeIdx(7)), 3);
        m.remove(1);
        m.remove(1); // idempotent
        m.remove(99); // out of range
        assert_eq!(m.num_live(), 3);
        assert!(!m.is_live(1) && m.is_live(3));
        assert!(matches!(m.node_of(1), Err(DhtError::NodeNotFound { index: 1 })));
        assert_eq!(m.live().collect::<Vec<_>>(), vec![NodeIdx(0), NodeIdx(2), NodeIdx(7)]);
    }
}
