//! The overlay interface the experiment engine drives.
//!
//! Both simulators (Chord and Cycloid) store their nodes in a generational
//! arena and expose routing through this trait, so the discovery systems
//! and the measurement harness are agnostic to which DHT is underneath.

use crate::error::DhtError;
use crate::trace::{HopCount, RouteResult, RouteSink, RouteStats};

/// Arena index of a node within an overlay.
///
/// Indices are stable for the lifetime of a node; a departed node's slot is
/// tomb-stoned (never reused within one experiment) so traces and directory
/// references can always be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub usize);

impl NodeIdx {
    /// The raw arena slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The live nodes of an overlay, borrowed as the overlay stores them: `u32`
/// arena slots (4 B a node, where a `[NodeIdx]` costs 8), read back as
/// [`NodeIdx`] values. Indexing and iteration are O(1) per node, as over a
/// slice.
#[derive(Debug, Clone, Copy)]
pub struct NodeList<'a>(&'a [u32]);

/// Iterator over a [`NodeList`].
pub type NodeIter<'a> = std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> NodeIdx>;

impl<'a> NodeList<'a> {
    /// View `slots` (arena slot numbers) as nodes.
    pub fn new(slots: &'a [u32]) -> Self {
        Self(slots)
    }

    /// Number of nodes.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True when the list holds no node.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th node.
    ///
    /// # Panics
    /// If `i` is out of range, as slice indexing does.
    pub fn at(self, i: usize) -> NodeIdx {
        NodeIdx(self.0[i] as usize)
    }

    /// The nodes in list order.
    pub fn iter(self) -> NodeIter<'a> {
        self.0.iter().map(|&s| NodeIdx(s as usize))
    }

    /// An owned copy of the list.
    pub fn to_vec(self) -> Vec<NodeIdx> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for NodeList<'a> {
    type Item = NodeIdx;
    type IntoIter = NodeIter<'a>;

    fn into_iter(self) -> NodeIter<'a> {
        self.iter()
    }
}

/// Divisor of the step [`reserve_slack`] grows an arena by: a full arena
/// gains an eighth of its length, not the doubling of `Vec::push`.
const SLACK_DIVISOR: usize = 8;

/// Make room for `extra` more elements in `v`, growing it by at least
/// `len / 8` when it must grow at all. Arenas grow one slot per join, and a
/// cloned bed's capacities equal its lengths, so `Vec`'s doubling would
/// make its first join nearly double every per-node array. Growth stays
/// geometric, so a push is still amortised O(1).
pub fn reserve_slack<T>(v: &mut Vec<T>, extra: usize) {
    if v.len() + extra > v.capacity() {
        v.reserve_exact(extra.max(v.len() / SLACK_DIVISOR));
    }
}

/// A structured DHT overlay, as seen by the discovery layer.
///
/// The associated `Key` type is the overlay's identifier: a plain `u64` for
/// Chord, a (cyclic, cubical) pair for Cycloid.
pub trait Overlay {
    /// Identifier type of keys and nodes. Totally ordered, so a replica
    /// store can keep its entries sorted by the key they reroute under.
    type Key: Copy + Ord + std::fmt::Debug;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// True when the overlay has no live nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic mutation counter. Every operation that changes routing
    /// state — membership (join/leave/fail), link maintenance
    /// (stabilize/fix-fingers/repair) or bulk rebuilds — strictly
    /// increases the epoch, so two observations of the same epoch
    /// guarantee the overlay routed identically in between. This is the
    /// staleness bound the [`RouteCache`](crate::cache::RouteCache)
    /// invalidates on: a cached entry stamped with an older epoch is a
    /// miss by definition. Implementations start at a nonzero epoch
    /// (construction itself mutates state), which lets the cache use
    /// `epoch == 0` as its empty-slot sentinel.
    fn epoch(&self) -> u64;

    /// Arena indices of all live nodes, borrowed from the overlay's
    /// internal index (no allocation). The order is deterministic and
    /// overlay-specific (ring order for Chord, arena order for Cycloid).
    fn live_nodes(&self) -> NodeList<'_>;

    /// Size of the node arena (live + tomb-stoned slots). Directory and
    /// replica bookkeeping in higher layers indexes by arena slot.
    fn arena_len(&self) -> usize;

    /// Is arena slot `idx` a live node? `false` for tomb-stoned slots and
    /// for indices past the arena.
    fn is_alive(&self, idx: NodeIdx) -> bool;

    /// Append up to `k - 1` replica targets for live node `idx`, drawn
    /// from its neighbour set (successor list on Chord, own cluster on
    /// Cycloid), never `idx` itself. The result at degree `k` is a prefix
    /// of the result at `k + 1`, which makes piece survival monotone in
    /// the replication degree.
    fn replica_targets_into(
        &self,
        idx: NodeIdx,
        k: usize,
        out: &mut Vec<NodeIdx>,
    ) -> Result<(), DhtError>;

    /// Ground-truth owner of a key (consistent-hashing assignment), without
    /// routing. Used to verify that routed lookups are exact.
    fn owner_of(&self, key: Self::Key) -> Result<NodeIdx, DhtError>;

    /// Most hops one lookup may record before the routing loop gives up
    /// with [`DhtError::RoutingLoop`] (Chord: `4·64 + 16`; Cycloid:
    /// `8d + 32`).
    fn route_budget(&self) -> usize;

    /// The overlay's one routing loop: forward a lookup for `key` from
    /// `from` using only node-local state at every hop, asking `sink`
    /// before each forwarding ([`check_forward`](crate::fault::check_forward))
    /// and reporting each hop
    /// taken to it. Returns `(terminal, exact)`. What a lookup costs and
    /// whether faults can cut it short is the sink's business, so
    /// [`Overlay::route`], [`Overlay::route_stats`] and each attempt of
    /// [`route_with_retry`](crate::fault::route_with_retry) are this loop
    /// under three sinks and cannot diverge.
    fn route_with<S: RouteSink>(
        &self,
        from: NodeIdx,
        key: Self::Key,
        sink: &mut S,
    ) -> Result<(NodeIdx, bool), DhtError>;

    /// Route a lookup for `key` from `from`, tracing every hop. The path
    /// is sized to the routing budget (+1 for the hop recorded on the
    /// budget check), so a traced route is exactly one allocation — pinned
    /// by `crates/bench/tests/alloc_count.rs`.
    fn route(&self, from: NodeIdx, key: Self::Key) -> Result<RouteResult, DhtError> {
        let mut path: Vec<NodeIdx> = Vec::with_capacity(self.route_budget() + 1);
        let (terminal, exact) = self.route_with(from, key, &mut path)?;
        Ok(RouteResult { path, terminal, exact })
    }

    /// Route a lookup for `key` from `from` without tracing the path: the
    /// same loop under a bare [`HopCount`], so only `(hops, terminal,
    /// exact)` come back and nothing is allocated.
    fn route_stats(&self, from: NodeIdx, key: Self::Key) -> Result<RouteStats, DhtError> {
        let mut hops = HopCount::default();
        let (terminal, exact) = self.route_with(from, key, &mut hops)?;
        Ok(RouteStats { hops: hops.get(), terminal, exact })
    }

    /// Number of *distinct* outgoing links `node` currently maintains.
    /// This is the structure-maintenance-overhead metric of Figure 3(a).
    fn outlinks(&self, node: NodeIdx) -> Result<usize, DhtError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_idx_display() {
        assert_eq!(NodeIdx(17).to_string(), "n17");
    }

    #[test]
    fn node_list_reads_slots_as_nodes() {
        let slots = [4u32, 0, 9];
        let list = NodeList::new(&slots);
        assert_eq!((list.len(), list.is_empty()), (3, false));
        assert_eq!(list.at(2), NodeIdx(9));
        assert_eq!(list.to_vec(), vec![NodeIdx(4), NodeIdx(0), NodeIdx(9)]);
        assert_eq!(list.into_iter().next_back(), Some(NodeIdx(9)));
        assert!(NodeList::new(&[]).is_empty());
    }

    #[test]
    fn reserve_slack_grows_by_an_eighth() {
        let mut v: Vec<u8> = vec![0; 800];
        assert_eq!(v.capacity(), 800);
        reserve_slack(&mut v, 1);
        assert_eq!(v.capacity(), 900, "a full arena gains len / 8");
        v.resize(850, 0);
        reserve_slack(&mut v, 20);
        assert_eq!(v.capacity(), 900, "room left: no growth");
        reserve_slack(&mut v, 500);
        assert_eq!(v.capacity(), 1350, "a batch larger than len / 8 gets exactly its room");
        let mut empty: Vec<u8> = Vec::new();
        reserve_slack(&mut empty, 1);
        assert_eq!(empty.capacity(), 1);
    }

    #[test]
    fn node_idx_ordering_follows_slot() {
        assert!(NodeIdx(1) < NodeIdx(2));
        assert_eq!(NodeIdx(3).index(), 3);
    }
}
