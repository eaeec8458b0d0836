//! Hop-accurate routing traces.
//!
//! The paper measures *logical hops* (nodes a lookup message traverses) and
//! *visited nodes* (nodes that receive a query and check their directory).
//! [`RouteResult`] records a single lookup's path; [`LookupTally`]
//! aggregates the per-query totals a figure reports.

use crate::overlay::NodeIdx;

/// The outcome of routing one message through an overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Every node the message passed through, *excluding* the origin and
    /// *including* the terminal node. `path.len()` is therefore the hop
    /// count of the lookup.
    pub path: Vec<NodeIdx>,
    /// The node at which routing terminated (the root of the key).
    pub terminal: NodeIdx,
    /// Whether routing converged to the true root of the key. Under churn
    /// a lookup can land on a stale node; the simulators report rather than
    /// hide this.
    pub exact: bool,
}

impl RouteResult {
    /// Number of logical hops taken (0 when the origin owned the key).
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// Allocation-free summary of one routed lookup — the fast-path twin of
/// [`RouteResult`] for the hot loops (figures 4/5/6, maintenance, churn)
/// that consume only the hop count and the terminal node and must not pay
/// a `Vec` per lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStats {
    /// Number of logical hops taken (0 when the origin owned the key).
    pub hops: usize,
    /// The node at which routing terminated (the root of the key).
    pub terminal: NodeIdx,
    /// Whether routing converged to the true root of the key.
    pub exact: bool,
}

impl RouteStats {
    /// A route that terminated at the origin without any hop.
    pub fn local(origin: NodeIdx) -> Self {
        Self { hops: 0, terminal: origin, exact: true }
    }
}

/// Verdict on one forwarding step, produced by [`RouteSink::forward`].
///
/// The fault-free sinks always answer [`Forward::Deliver`]; the
/// fault-injecting wrapper ([`FaultSink`](crate::fault::FaultSink))
/// consults its [`FaultPlan`](crate::fault::FaultPlan) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forward {
    /// The message reaches the next node.
    Deliver,
    /// The message is lost in transit (per-message drop coin fired).
    Dropped,
    /// The next node has failed ungracefully; the forwarding link is a
    /// stale finger / leaf-set entry and the message dies there.
    DeadHop,
}

/// Observer of routing hops: the same routing loop serves the traced
/// variant (recording into a `Vec<NodeIdx>` path) and the zero-allocation
/// fast path (a bare [`HopCount`]), so the two can never diverge.
pub trait RouteSink {
    /// Record one forwarding hop.
    fn visit(&mut self, hop: NodeIdx);
    /// Hops recorded so far (drives the routing-loop budget).
    fn hops(&self) -> usize;
    /// Judge a forwarding to `next` *before* it is recorded. The routing
    /// loops ask this ahead of every `visit`; the default delivers
    /// unconditionally, so plain sinks are byte-identical to the
    /// pre-fault-injection behaviour.
    fn forward(&mut self, next: NodeIdx) -> Forward {
        let _ = next;
        Forward::Deliver
    }
}

impl RouteSink for Vec<NodeIdx> {
    fn visit(&mut self, hop: NodeIdx) {
        self.push(hop);
    }

    fn hops(&self) -> usize {
        self.len()
    }
}

/// Zero-allocation hop counter — the [`RouteSink`] behind
/// [`RouteStats`](crate::overlay::Overlay::route_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCount(usize);

impl HopCount {
    /// Hops counted.
    pub fn get(self) -> usize {
        self.0
    }
}

impl RouteSink for HopCount {
    fn visit(&mut self, _hop: NodeIdx) {
        self.0 += 1;
    }

    fn hops(&self) -> usize {
        self.0
    }
}

/// Aggregated cost of resolving one (possibly multi-attribute) query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupTally {
    /// Total logical *lookup* routing hops over all sub-queries. Range
    /// walks are accounted in `visited` (each probe is itself one
    /// forwarding message), so `hops + visited` is the paper's
    /// "contacted nodes" metric (Theorem 4.10).
    pub hops: usize,
    /// Number of DHT lookups issued (the paper counts one per attribute for
    /// LORM/Mercury/SWORD and two per attribute for MAAN).
    pub lookups: usize,
    /// Nodes that received the query and checked their directory —
    /// the roots plus every node probed while walking a range.
    pub visited: usize,
    /// Resource-information pieces returned to the requester.
    pub matches: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_counts_path_length() {
        let r = RouteResult {
            path: vec![NodeIdx(1), NodeIdx(2), NodeIdx(5)],
            terminal: NodeIdx(5),
            exact: true,
        };
        assert_eq!(r.hops(), 3);
    }

    #[test]
    fn tally_default_is_zero() {
        let t = LookupTally::default();
        assert_eq!(t.hops + t.lookups + t.visited + t.matches, 0);
    }

    #[test]
    fn local_stats_have_zero_hops() {
        let s = RouteStats::local(NodeIdx(9));
        assert_eq!(s, RouteStats { hops: 0, terminal: NodeIdx(9), exact: true });
    }

    #[test]
    fn hop_count_sink_counts_without_storing() {
        let mut h = HopCount::default();
        h.visit(NodeIdx(1));
        h.visit(NodeIdx(2));
        assert_eq!(h.hops(), 2);
        assert_eq!(h.get(), 2);
    }

    #[test]
    fn vec_sink_records_the_path() {
        let mut v: Vec<NodeIdx> = Vec::new();
        v.visit(NodeIdx(4));
        v.visit(NodeIdx(7));
        assert_eq!(RouteSink::hops(&v), 2);
        assert_eq!(v, vec![NodeIdx(4), NodeIdx(7)]);
    }
}
