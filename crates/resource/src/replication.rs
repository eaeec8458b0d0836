//! Replicated piece identity and per-node replica stores.
//!
//! The replication layer (degree `k`) keeps each registered
//! [`ResourceInfo`] on its owner *plus* `k - 1` replica holders. This
//! module supplies the two data types every system shares:
//!
//! * [`PieceKey`] — the value identity of one logical registration,
//!   used to intersect the piece set before and after a churn run.
//!   Systems that register a report more than once (MAAN stores it under
//!   both its attribute key and its value key; Mercury stores one copy
//!   per hub) collapse to a single `PieceKey`, so "survived" means *any*
//!   registration or replica of the piece is still reachable.
//! * [`ReplicaStore`] — one node's replicas, each remembering which
//!   primary it was copied from and under which routing key, so the
//!   maintenance round can promote copies whose primary died.
//!
//! Both are sorted flat vectors (the workspace determinism contract bans
//! hash collections in result-bearing state).

use crate::model::ResourceInfo;
use dht_core::NodeIdx;

/// Value identity of one logical piece: attribute, exact value bits, and
/// the owning physical resource. Two registrations of the same report
/// (MAAN's dual keys, Mercury's per-hub copies, any replica) compare
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PieceKey {
    /// Attribute index.
    pub attr: u32,
    /// IEEE-754 bit pattern of the attribute value (exact, total order).
    pub value_bits: u64,
    /// Physical node that registered the report.
    pub owner: usize,
}

impl PieceKey {
    /// The piece identity of one stored report.
    pub fn of(info: &ResourceInfo) -> Self {
        Self { attr: info.attr.0, value_bits: info.value.to_bits(), owner: info.owner }
    }
}

/// One replica held on behalf of a (possibly dead) primary. `K` is the
/// overlay's key type (`dht_core::Overlay::Key`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaEntry<K> {
    /// Arena slot of the node this piece was copied from.
    pub primary: NodeIdx,
    /// Routing key the primary stored the piece under (systems place by
    /// different keys — attribute hash, locality hash of the value, a
    /// Cycloid rescID — so promotion must reroute by the original key).
    pub key: K,
    /// The replicated report.
    pub info: ResourceInfo,
}

impl<K: Copy + Ord> ReplicaEntry<K> {
    fn sort_key(&self) -> (usize, K, u32, u64, usize) {
        let p = PieceKey::of(&self.info);
        (self.primary.0, self.key, p.attr, p.value_bits, p.owner)
    }
}

/// A node's replica set, kept sorted by `(primary, key, piece)` so that
/// insertion is dedup-checked and iteration order is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStore<K> {
    entries: Vec<ReplicaEntry<K>>,
}

impl<K> Default for ReplicaStore<K> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<K: Copy + Ord> ReplicaStore<K> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a replica; returns `false` (and stores nothing) when an
    /// identical entry is already present.
    pub fn insert(&mut self, primary: NodeIdx, key: K, info: ResourceInfo) -> bool {
        let e = ReplicaEntry { primary, key, info };
        match self.entries.binary_search_by_key(&e.sort_key(), ReplicaEntry::sort_key) {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, e);
                true
            }
        }
    }

    /// Whether an identical replica entry is present.
    pub fn contains(&self, primary: NodeIdx, key: K, info: &ResourceInfo) -> bool {
        let e = ReplicaEntry { primary, key, info: *info };
        self.entries.binary_search_by_key(&e.sort_key(), ReplicaEntry::sort_key).is_ok()
    }

    /// Remove and return every entry whose primary fails `alive`, in
    /// sorted order — the promotion work-list of one repair round.
    pub fn drain_dead(&mut self, mut alive: impl FnMut(NodeIdx) -> bool) -> Vec<ReplicaEntry<K>> {
        let mut dead = Vec::new();
        self.entries.retain(|e| {
            if alive(e.primary) {
                true
            } else {
                dead.push(*e);
                false
            }
        });
        dead
    }

    /// Drop every entry (the holder itself left or failed).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries in sorted order.
    pub fn entries(&self) -> &[ReplicaEntry<K>] {
        &self.entries
    }

    /// Number of replicas held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no replicas are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append the piece identity of every held replica.
    pub fn keys_into(&self, out: &mut Vec<PieceKey>) {
        out.extend(self.entries.iter().map(|e| PieceKey::of(&e.info)));
    }
}

/// Sort and dedup a piece-set in place (the canonical form both sides of
/// a survival intersection use).
pub fn canonicalize_pieces(pieces: &mut Vec<PieceKey>) {
    pieces.sort_unstable();
    pieces.dedup();
}

/// How many of the (canonical, sorted, deduped) `initial` pieces are
/// present in the canonical `surviving` set.
pub fn count_surviving(initial: &[PieceKey], surviving: &[PieceKey]) -> usize {
    initial.iter().filter(|p| surviving.binary_search(p).is_ok()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AttrId;

    fn info(attr: u32, value: f64, owner: usize) -> ResourceInfo {
        ResourceInfo { attr: AttrId(attr), value, owner }
    }

    #[test]
    fn piece_key_collapses_duplicate_registrations() {
        let r = info(3, 1.5, 7);
        assert_eq!(PieceKey::of(&r), PieceKey::of(&r.clone()));
        let other = info(3, 1.5, 8);
        assert_ne!(PieceKey::of(&r), PieceKey::of(&other));
    }

    #[test]
    fn insert_dedups_identical_entries() {
        let mut s = ReplicaStore::<u64>::new();
        assert!(s.insert(NodeIdx(1), 42, info(0, 2.0, 5)));
        assert!(!s.insert(NodeIdx(1), 42, info(0, 2.0, 5)));
        assert!(s.insert(NodeIdx(2), 42, info(0, 2.0, 5)), "distinct primary");
        assert!(s.insert(NodeIdx(1), 43, info(0, 2.0, 5)), "distinct key");
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeIdx(1), 42, &info(0, 2.0, 5)));
        assert!(!s.contains(NodeIdx(9), 42, &info(0, 2.0, 5)));
    }

    #[test]
    fn drain_dead_splits_by_primary_liveness() {
        let mut s = ReplicaStore::<u64>::new();
        s.insert(NodeIdx(1), 10, info(0, 1.0, 1));
        s.insert(NodeIdx(2), 11, info(1, 2.0, 2));
        s.insert(NodeIdx(3), 12, info(2, 3.0, 3));
        let dead = s.drain_dead(|p| p.0 != 2);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].primary, NodeIdx(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn survival_intersection_counts_canonical_pieces() {
        let mut init = vec![
            PieceKey::of(&info(0, 1.0, 1)),
            PieceKey::of(&info(1, 2.0, 2)),
            PieceKey::of(&info(0, 1.0, 1)),
        ];
        canonicalize_pieces(&mut init);
        assert_eq!(init.len(), 2, "dedup removes the duplicate registration");
        let mut alive = vec![PieceKey::of(&info(1, 2.0, 2)), PieceKey::of(&info(9, 9.0, 9))];
        canonicalize_pieces(&mut alive);
        assert_eq!(count_surviving(&init, &alive), 1);
    }
}
