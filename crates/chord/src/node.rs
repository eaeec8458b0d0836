//! Per-node Chord state: a borrowed view over the arena's flat arrays.

use crate::network::Chord;
use dht_core::NodeIdx;
use std::fmt;

/// Number of finger-table entries (the identifier space is 64 bits wide).
pub const FINGER_BITS: usize = 64;

/// A read-only view of one Chord node's local state.
///
/// Node state lives in struct-of-arrays form on [`Chord`] — parallel flat
/// `Vec`s for ids, liveness, fingers, successor lists and predecessors,
/// indexed by arena slot — so a million-node overlay is a handful of
/// contiguous allocations instead of a million boxed nodes. This view
/// borrows the arena and exposes the classic per-node accessors;
/// everything a node uses to route must be reachable through it (the
/// routing code only ever reads the state of the node currently holding
/// the message).
#[derive(Clone, Copy)]
pub struct ChordNode<'a> {
    pub(crate) net: &'a Chord,
    pub(crate) slot: usize,
}

impl ChordNode<'_> {
    /// Ring identifier of this node.
    pub fn id(&self) -> u64 {
        self.net.id_at(self.slot)
    }

    /// Is the node currently part of the overlay?
    pub fn is_alive(&self) -> bool {
        self.net.alive_at(self.slot)
    }

    /// Immediate successor (first entry of the successor list).
    pub fn successor(&self) -> Option<NodeIdx> {
        self.net.succs_of(self.slot).next()
    }

    /// The successor list.
    pub fn successor_list(&self) -> Vec<NodeIdx> {
        self.net.succs_of(self.slot).collect()
    }

    /// Immediate predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeIdx> {
        self.net.pred_at(self.slot)
    }

    /// Finger table, all [`FINGER_BITS`] levels with the implicit ones
    /// below the stored window filled in (may contain duplicates; see
    /// [`Chord::outlinks`](crate::Chord) for the distinct count).
    pub fn fingers(&self) -> Vec<NodeIdx> {
        let window = self.net.raw_fingers(self.slot);
        let below = std::iter::repeat_n(window[0], FINGER_BITS - window.len());
        below.chain(window.iter().copied()).filter_map(|f| f.get()).collect()
    }
}

impl fmt::Debug for ChordNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNode")
            .field("slot", &self.slot)
            .field("id", &self.id())
            .field("alive", &self.is_alive())
            .field("successors", &self.successor_list())
            .field("predecessor", &self.predecessor())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{Chord, ChordConfig};

    #[test]
    fn tombstone_view_has_no_links() {
        let mut c = Chord::build(4, ChordConfig::default());
        let t = c.reserve_tombstone();
        let v = c.node(t).unwrap();
        assert!(!v.is_alive());
        assert!(v.successor().is_none());
        assert!(v.predecessor().is_none());
        assert!(v.fingers().is_empty());
    }

    #[test]
    fn view_matches_arena_state() {
        let c = Chord::build(16, ChordConfig::default());
        for idx in c.nodes_by_id() {
            let v = c.node(idx).unwrap();
            assert!(v.is_alive());
            assert_eq!(v.id(), c.id_of(idx).unwrap());
            assert_eq!(v.successor(), v.successor_list().first().copied());
            assert_eq!(v.fingers().len(), super::FINGER_BITS);
        }
    }
}
