//! Per-node Cycloid state: the constant-degree routing table.

use crate::id::CycloidId;
use dht_core::{Link, NodeIdx};

/// The complete local state of one Cycloid node: its id, its liveness and
/// eight 4 B [`Link`]s, 44 B in all.
///
/// All links may be `None` in degenerate networks (single node, single
/// cluster) and may be stale after churn until repair runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycloidNode {
    pub(crate) id: CycloidId,
    pub(crate) alive: bool,
    /// Inside leaf set: predecessor in the cluster ring (next smaller
    /// cyclic index, wrapping).
    pub(crate) inside_pred: Link,
    /// Inside leaf set: successor in the cluster ring.
    pub(crate) inside_succ: Link,
    /// Outside leaf set: primary of the preceding occupied cluster.
    pub(crate) outside_pred: Link,
    /// Outside leaf set: primary of the succeeding occupied cluster.
    pub(crate) outside_succ: Link,
    /// Node nearest `(k-1, a XOR 2^k)`.
    pub(crate) cubical_nbr: Link,
    /// Nodes nearest `(k-1, a - 2^k)` and `(k-1, a + 2^k)`.
    pub(crate) cyclic_nbrs: [Link; 2],
    /// Cached primary (largest cyclic index) of the own cluster.
    pub(crate) primary: Link,
}

impl CycloidNode {
    pub(crate) fn new(id: CycloidId) -> Self {
        Self {
            id,
            alive: true,
            inside_pred: Link::NONE,
            inside_succ: Link::NONE,
            outside_pred: Link::NONE,
            outside_succ: Link::NONE,
            cubical_nbr: Link::NONE,
            cyclic_nbrs: [Link::NONE; 2],
            primary: Link::NONE,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> CycloidId {
        self.id
    }

    /// Is the node currently part of the overlay?
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Inside-leaf-set successor (next larger cyclic index in the cluster).
    pub fn inside_succ(&self) -> Option<NodeIdx> {
        self.inside_succ.get()
    }

    /// Inside-leaf-set predecessor.
    pub fn inside_pred(&self) -> Option<NodeIdx> {
        self.inside_pred.get()
    }

    /// Outside-leaf-set links `(preceding, succeeding)` cluster primaries.
    pub fn outside_leaf(&self) -> (Option<NodeIdx>, Option<NodeIdx>) {
        (self.outside_pred.get(), self.outside_succ.get())
    }

    /// The cubical neighbor.
    pub fn cubical_neighbor(&self) -> Option<NodeIdx> {
        self.cubical_nbr.get()
    }

    /// The two cyclic neighbors `(minus, plus)`.
    pub fn cyclic_neighbors(&self) -> [Option<NodeIdx>; 2] {
        self.cyclic_nbrs.map(Link::get)
    }

    /// Cached primary node of the own cluster.
    pub fn primary(&self) -> Option<NodeIdx> {
        self.primary.get()
    }

    /// All links, deduplicated, excluding self-references.
    pub(crate) fn distinct_neighbors(&self, me: NodeIdx) -> Vec<NodeIdx> {
        let mut v: Vec<NodeIdx> = self.all_links().filter(|&x| x != me).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterator over every present link (used by routing's greedy fallback).
    pub(crate) fn all_links(&self) -> impl Iterator<Item = NodeIdx> {
        [
            self.inside_pred,
            self.inside_succ,
            self.outside_pred,
            self.outside_succ,
            self.cubical_nbr,
            self.cyclic_nbrs[0],
            self.cyclic_nbrs[1],
            self.primary,
        ]
        .into_iter()
        .filter_map(Link::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_linkless() {
        assert_eq!(size_of::<CycloidNode>(), 44, "an 8 B id, a liveness flag, eight 4 B links");
        let n = CycloidNode::new(CycloidId { cyclic: 0, cubical: 0 });
        assert!(n.is_alive());
        assert!(n.distinct_neighbors(NodeIdx(0)).is_empty());
        assert_eq!(n.all_links().count(), 0);
    }

    #[test]
    fn distinct_neighbors_excludes_self_and_dupes() {
        let mut n = CycloidNode::new(CycloidId { cyclic: 1, cubical: 2 });
        n.inside_pred = Link::new(NodeIdx(5));
        n.inside_succ = Link::new(NodeIdx(5));
        n.primary = Link::new(NodeIdx(0)); // self
        n.cubical_nbr = Link::new(NodeIdx(9));
        assert_eq!(n.distinct_neighbors(NodeIdx(0)), vec![NodeIdx(5), NodeIdx(9)]);
    }
}
