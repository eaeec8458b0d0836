//! The one link encoding both overlays store: a 4-byte arena slot.

use crate::overlay::NodeIdx;
use std::fmt;

/// A stored link to an arena slot, or no link: 4 B where an
/// `Option<NodeIdx>` costs 16. The slot is a private `u32` with `u32::MAX`
/// reserved for [`Link::NONE`], so the arenas that hold links stop one
/// slot short of `u32` range ([`arena_has_capacity`]). The raw value
/// cannot be read outside this crate, so "no link" cannot be mistaken for
/// a node index; [`Link::get`] is the only way out:
///
/// ```compile_fail,E0616
/// let raw: u32 = dht_core::Link::NONE.0;
/// ```
///
/// ```
/// use dht_core::{Link, NodeIdx};
///
/// assert_eq!(Link::new(NodeIdx(7)).get(), Some(NodeIdx(7)));
/// assert_eq!(Link::from(None).get(), None);
/// assert!(!Link::NONE.is_some());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Link(u32);

impl Link {
    /// No link.
    pub const NONE: Self = Self(u32::MAX);

    /// A link to `idx`.
    ///
    /// # Panics
    /// If `idx` is past `u32` slot range: an arena checks
    /// [`arena_has_capacity`] before it grows, so no stored node is.
    #[inline]
    pub fn new(idx: NodeIdx) -> Self {
        assert!(arena_has_capacity(idx.0, 1), "node {idx} is past the u32 link range");
        Self(idx.0 as u32)
    }

    /// The linked node, or `None` for [`Link::NONE`].
    #[inline]
    pub fn get(self) -> Option<NodeIdx> {
        (self != Self::NONE).then_some(NodeIdx(self.0 as usize))
    }

    /// Is this a link to a node?
    #[inline]
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }
}

impl From<Option<NodeIdx>> for Link {
    #[inline]
    fn from(idx: Option<NodeIdx>) -> Self {
        idx.map_or(Self::NONE, Self::new)
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Can an arena of `len` slots grow by `extra` and still name every slot
/// with a [`Link`]? `u32::MAX` is [`Link::NONE`], so the largest usable
/// slot index is `u32::MAX - 1`.
pub fn arena_has_capacity(len: usize, extra: usize) -> bool {
    len.checked_add(extra).is_some_and(|total| total <= u32::MAX as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_is_four_bytes_and_round_trips() {
        assert_eq!(size_of::<Link>(), 4);
        for idx in [NodeIdx(0), NodeIdx(41), NodeIdx(u32::MAX as usize - 1)] {
            assert_eq!(Link::new(idx).get(), Some(idx));
            assert_eq!(Link::from(Some(idx)), Link::new(idx));
        }
        assert_eq!((Link::NONE.get(), Link::from(None)), (None, Link::NONE));
        assert_eq!(
            format!("{:?} {:?}", Link::new(NodeIdx(3)), Link::NONE),
            "Some(NodeIdx(3)) None"
        );
    }

    #[test]
    #[should_panic(expected = "past the u32 link range")]
    fn link_to_the_none_slot_panics() {
        let _ = Link::new(NodeIdx(u32::MAX as usize));
    }

    #[test]
    fn arena_capacity_guards_u32_boundary() {
        // An arena can fill every representable u32 slot except
        // `Link::NONE`'s: u32::MAX slots total (indices 0..=u32::MAX-1),
        // one more is a wrap.
        let max = u32::MAX as usize;
        assert!(arena_has_capacity(max - 1, 1));
        assert!(arena_has_capacity(max, 0));
        assert!(!arena_has_capacity(max, 1));
        assert!(!arena_has_capacity(max - 1, 2));
        assert!(!arena_has_capacity(usize::MAX, 1), "checked_add overflow must fail closed");
    }
}
