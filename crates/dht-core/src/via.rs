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

use crate::cache::RouteCache;
use crate::error::DhtError;
use crate::fault::{
    probe_step, route_with_retry, sub_msg_id, walk_msg_id, FaultAccount, FaultPlan,
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
    pub fn admit_step(&mut self, sub_msg: u64, step: usize, next: NodeIdx) -> bool {
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
    pub fn cache(&mut self) -> Option<&mut RouteCache> {
        match self {
            Via::Cached(cache) => Some(cache),
            Via::Direct | Via::Faulty { .. } => None,
        }
    }

    /// Total hops (successful and wasted) one query may spend before its
    /// remaining sub-queries are abandoned; unbounded without faults.
    pub fn hop_budget(&self) -> usize {
        match self {
            Via::Faulty { plan, .. } => plan.hop_budget(),
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
