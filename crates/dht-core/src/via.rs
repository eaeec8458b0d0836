//! How a query's messages travel.
//!
//! Every discovery system resolves a sub-query by the same recipe — DHT
//! lookup(s), an optional successor walk, a directory match — and the
//! fault-free, walk-cached and fault-injected executions of that recipe
//! differ in three operations only: how one lookup is routed and whether
//! a walk may advance one more step (faults), and whether a walk may
//! replay from memory (the cache). A fault is a property of the
//! *message*, not of the algorithm that sent it, so a [`Via`] owns those
//! operations and each system writes its recipe once against it.
//!
//! The walk itself is written here once, too: [`Via::walk`] is the only
//! range-walk loop in the workspace. An overlay contributes one
//! [`Advance`] step — Chord's clockwise successor, Cycloid's inside-leaf
//! successor — and the loop around it (probe budget, fault admission per
//! step, replay from and recording into the cache) is shared.

use crate::cache::{RouteCache, WalkStep};
use crate::error::DhtError;
use crate::fault::{
    probe_step, route_with_retry, sub_msg_id, walk_msg_id, FaultAccount, FaultPlan, HOP_BUDGET,
};
use crate::overlay::{NodeIdx, Overlay};
use crate::trace::RouteStats;

/// The way one query's lookups and walk probes reach their targets.
#[derive(Debug)]
pub enum Via<'a> {
    /// Every message is delivered; every lookup routes for real.
    Direct,
    /// Every message is delivered and every lookup routes for real; range
    /// walks are memoized in the cache (byte-identical to [`Via::Direct`],
    /// see [`RouteCache`]).
    Cached(&'a mut RouteCache),
    /// Messages are subject to `plan`'s drop and dead-node coins, with
    /// bounded retry. `msg_seed` identifies the query in the coin stream:
    /// the same `(plan, msg_seed)` pair always draws the same faults,
    /// regardless of sharding. `acct` collects the degradation counters.
    Faulty {
        /// The fault regime.
        plan: &'a FaultPlan,
        /// The query's identity in the fault coin stream.
        msg_seed: u64,
        /// Retries spent and messages lost so far.
        acct: FaultAccount,
    },
}

impl<'a> Via<'a> {
    /// Travel under `plan`, drawing this query's coins from `msg_seed`.
    pub fn faulty(plan: &'a FaultPlan, msg_seed: u64) -> Self {
        Via::Faulty { plan, msg_seed, acct: FaultAccount::default() }
    }

    /// Route `key` from `from` on `overlay`. `msg` is the lookup's id in
    /// the fault coin stream (see [`Self::sub_msg`]). Under faults a lookup
    /// that exhausts its retries returns [`DhtError::MessageDropped`] or
    /// [`DhtError::DeadHop`] carrying the hops it wasted.
    pub fn route_stats<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        msg: u64,
    ) -> Result<RouteStats, DhtError> {
        match self {
            Via::Direct | Via::Cached(_) => overlay.route_stats(from, key),
            Via::Faulty { plan, acct, .. } => route_with_retry(overlay, from, key, plan, msg, acct),
        }
    }

    /// May the directory walk that follows lookup `sub_msg` advance to
    /// `next` at `step` (1-based)? `false` truncates the walk.
    fn admit_step(&mut self, sub_msg: u64, step: usize, next: NodeIdx) -> bool {
        match self {
            Via::Faulty { plan, acct, .. } => {
                probe_step(plan, walk_msg_id(sub_msg), step, next, acct)
            }
            Via::Direct | Via::Cached(_) => true,
        }
    }

    /// Message id of sub-query `sub` (0 when no coins are drawn).
    pub fn sub_msg(&self, sub: usize) -> u64 {
        match self {
            Via::Faulty { msg_seed, .. } => sub_msg_id(*msg_seed, sub),
            Via::Direct | Via::Cached(_) => 0,
        }
    }

    /// The cache range walks replay from and record into, if any.
    fn cache(&mut self) -> Option<&mut RouteCache> {
        match self {
            Via::Cached(cache) => Some(cache),
            Via::Direct | Via::Faulty { .. } => None,
        }
    }

    /// The range walk: probe `start` (the root the walk's lookup reached),
    /// then follow `advance` from node to node for at most `budget` steps
    /// (ring size on Chord, `d` within a Cycloid cluster: a full circle
    /// never loops), appending every probed node to `out` in walk order.
    /// Returns `true` when a fault truncated the walk before `advance`
    /// ended it: every step is a probe message of the walk that follows
    /// lookup `msg`, and a dropped one stops the walk where it is.
    ///
    /// With a [`WalkMemo`] and a cache the emission is identical by
    /// construction. A fresh-epoch segment cached for at least this span
    /// replays through the stop rule (`dist < span`); otherwise the walk
    /// runs for real and, from the second sighting of its key on (see
    /// `RouteCache::admit_walk`), is recorded. A walk ended by
    /// [`Advance::End`] or by the budget (a full circle) emitted everything
    /// reachable from the start, so it is cached with an unbounded span and
    /// replays for wider queries too; one ended by [`Advance::Covered`] is
    /// bounded to its own span. Without a memo the cache is never
    /// consulted.
    pub fn walk(
        &mut self,
        start: NodeIdx,
        budget: usize,
        msg: u64,
        memo: Option<WalkMemo>,
        mut advance: impl FnMut(NodeIdx) -> Advance,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        out.push(start);
        let mut rec = None;
        if let (Some(m), Some(cache)) = (memo, self.cache()) {
            if let Some(steps) = cache.walk_lookup(m.salt, start, m.lo, m.span, m.epoch) {
                out.extend(steps.iter().take_while(|s| s.dist < m.span).map(|s| s.node));
                return false;
            }
            // Two-touch admission: a first-sighted key runs the walk plain
            // (recording a never-repeating walk is pure overhead); only a
            // repeat offender pays the per-step copy and gets cached.
            if cache.admit_walk(m.salt, start, m.lo, m.epoch) {
                rec = Some(cache.begin_walk());
            }
        }
        let mut covered = false;
        let mut cur = start;
        for step in 1..=budget {
            match advance(cur) {
                Advance::To { node, dist } => {
                    debug_assert!(memo.is_none_or(|m| dist < m.span), "step past the span");
                    if !self.admit_step(msg, step, node) {
                        return true;
                    }
                    if let Some(rec) = rec.as_mut() {
                        rec.push(WalkStep { node, dist });
                    }
                    out.push(node);
                    cur = node;
                }
                Advance::Covered => {
                    covered = true;
                    break;
                }
                Advance::End => break,
            }
        }
        if let (Some(m), Some(rec), Some(cache)) = (memo, rec, self.cache()) {
            let stored_span = if covered { m.span } else { u64::MAX };
            cache.commit_walk(m.salt, start, m.lo, stored_span, m.epoch, rec);
        }
        false
    }

    /// Total hops (successful and wasted) one query may spend before its
    /// remaining sub-queries are abandoned; unbounded without faults.
    pub fn hop_budget(&self) -> usize {
        match self {
            Via::Faulty { .. } => HOP_BUDGET,
            Via::Direct | Via::Cached(_) => usize::MAX,
        }
    }

    /// Degradation counters so far (all zero without faults).
    pub fn account(&self) -> FaultAccount {
        match self {
            Via::Faulty { acct, .. } => *acct,
            Via::Direct | Via::Cached(_) => FaultAccount::default(),
        }
    }
}

/// The cache identity of a range walk.
#[derive(Debug, Clone, Copy)]
pub struct WalkMemo {
    /// Namespace of the overlay walked, when several share one cache
    /// (Mercury's hub index; 0 on single-overlay systems).
    pub salt: u64,
    /// The walk's anchor: the key (or cyclic position) of the range's low
    /// end. [`Advance::To`] distances are measured from it.
    pub lo: u64,
    /// The distance no probed node reaches: the stop rule is
    /// `dist < span`, the same rule a cached walk replays through.
    pub span: u64,
    /// The overlay's [`epoch`](crate::Overlay::epoch) when the walk runs.
    pub epoch: u64,
}

/// One step of a range walk, as the overlay decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Probe `node` next. `dist` is the monotone distance from the memo's
    /// anchor that admitted it, always below the memo's span.
    To {
        /// The next node probed.
        node: NodeIdx,
        /// The stop-rule quantity that admitted `node`.
        dist: u64,
    },
    /// The range is covered: the stop rule fired.
    Covered,
    /// The walk cannot go on for a reason the span does not decide — a
    /// broken pointer, a full circle, no sector transition.
    End,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    /// A line of nodes `0, 1, 2, ...` at distance `10·i` from the anchor,
    /// ending after `last`.
    fn line(last: usize, span: u64) -> impl FnMut(NodeIdx) -> Advance {
        move |cur| {
            let next = cur.0 + 1;
            let dist = 10 * cur.0 as u64;
            if next > last {
                Advance::End
            } else if dist >= span {
                Advance::Covered
            } else {
                Advance::To { node: NodeIdx(next), dist }
            }
        }
    }

    fn memo(span: u64, memo: bool) -> Option<WalkMemo> {
        memo.then_some(WalkMemo { salt: 0, lo: 0, span, epoch: 1 })
    }

    fn run(via: &mut Via<'_>, span: u64, memoized: bool) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        assert!(!via.walk(NodeIdx(0), 100, 0, memo(span, memoized), line(20, span), &mut out));
        out
    }

    #[test]
    fn walk_stops_at_the_span_the_end_or_the_budget() {
        let ids = |v: Vec<NodeIdx>| v.into_iter().map(|n| n.0).collect::<Vec<_>>();
        assert_eq!(ids(run(&mut Via::Direct, 35, true)), [0, 1, 2, 3, 4]);
        assert_eq!(ids(run(&mut Via::Direct, 1000, true)), (0..=20).collect::<Vec<_>>());
        let mut out = Vec::new();
        Via::Direct.walk(NodeIdx(0), 2, 0, None, line(20, 1000), &mut out);
        assert_eq!(ids(out), [0, 1, 2]);
    }

    #[test]
    fn cached_walks_replay_the_direct_emission() {
        let mut cache = RouteCache::new();
        // 30 and 200 end exactly on a node's distance: the rule is strict.
        for span in [1000, 1000, 35, 30, 5, 200, 1000] {
            let cached = run(&mut Via::Cached(&mut cache), span, true);
            assert_eq!(cached, run(&mut Via::Direct, span, true), "span {span}");
        }
        // Two sightings record the full walk (ended, not covered: an
        // unbounded span), and every later span replays from it.
        assert_eq!(cache.walk_hits(), 5);
    }

    #[test]
    fn unmemoized_walks_never_touch_the_cache() {
        let mut cache = RouteCache::new();
        for _ in 0..3 {
            run(&mut Via::Cached(&mut cache), 1000, false);
        }
        assert_eq!((cache.walk_hits(), cache.walk_misses()), (0, 0));
    }

    #[test]
    fn a_dropped_probe_truncates_the_walk() {
        let plan = FaultPlan::new(1, 1.0, 0.0).unwrap();
        let mut via = Via::faulty(&plan, 9);
        let mut out = Vec::new();
        assert!(via.walk(NodeIdx(0), 100, 0, memo(1000, true), line(20, 1000), &mut out));
        assert_eq!(out, [NodeIdx(0)]);
        assert!(via.account().dropped_msgs > 0);
    }
}
