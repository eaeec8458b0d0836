//! The `ResourceDiscovery` interface the experiment engine drives.
//!
//! LORM (`lorm` crate) and the three baselines (`baselines` crate) all
//! implement this trait over a population of *physical nodes* — the grid
//! machines of the paper, identified by dense `usize` ids standing in for
//! IP addresses. Each system maps physical nodes onto its own overlay
//! node(s): one Cycloid node for LORM, one Chord node for SWORD/MAAN, and
//! `m` hub nodes for Mercury.

use crate::model::{Query, ResourceInfo, SubQuery};
use crate::planner::{self, intersect_sorted, QueryPlan};
use crate::replication::PieceKey;
use crate::selectivity::SelectivityEstimator;
use dht_core::{DhtError, FaultPlan, LoadDist, LookupTally, NodeIdx, RepairStats, RouteCache, Via};
use rand::rngs::SmallRng;

/// Result of resolving one multi-attribute query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// Aggregated cost over all sub-queries (hops, lookups, visited
    /// directory nodes, matched pieces).
    pub tally: LookupTally,
    /// Physical nodes that satisfy *every* sub-query — the result of the
    /// paper's database-like join on `ip_addr`. Strictly ascending (sorted,
    /// no repeats) under every system and plan: [`join_owners`] and
    /// [`planner::resolve_in_order`] both return it that way, and callers
    /// may `binary_search` it.
    pub owners: Vec<usize>,
    /// Every directory node that checked its directory for this query, as
    /// overlay arena indices in visiting order. Under
    /// [`QueryPlan::Parallel`] a node hit by several sub-queries repeats,
    /// one entry per check; `Sequential` and `Adaptive` keep only the
    /// first occurrence of each node. Used by the query-load-balance
    /// experiment.
    pub probed: Vec<NodeIdx>,
}

/// Outcome of one query resolved under a [`FaultPlan`]: the plain
/// [`QueryOutcome`] plus degradation accounting.
///
/// Each sub-query ends in one of three states: *resolved* (lookup
/// succeeded and the directory walk ran to completion), *degraded*
/// (lookup succeeded but a fault truncated the walk, so the owner set
/// may be incomplete), or *failed* (the lookup never reached a
/// directory node within the retry budget). `subs_resolved` counts only
/// the first class; the query as a whole is complete when every
/// sub-query resolved and failed when none produced any answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultyOutcome {
    /// The (possibly partial) query result. Costs include hops wasted
    /// on dropped or dead-ended attempts.
    pub outcome: QueryOutcome,
    /// Sub-queries that fully resolved (lookup ok, walk untruncated).
    pub subs_resolved: usize,
    /// Sub-queries whose lookup succeeded at all (resolved + degraded).
    pub subs_answered: usize,
    /// Total sub-queries in the query.
    pub subs_total: usize,
    /// Retries spent across all sub-query lookups.
    pub retries: u64,
    /// Messages lost in transit across all attempts.
    pub dropped_msgs: u64,
}

impl FaultyOutcome {
    /// Wrap a fault-free outcome: every sub-query fully resolved.
    pub fn complete(outcome: QueryOutcome, subs_total: usize) -> Self {
        Self {
            outcome,
            subs_resolved: subs_total,
            subs_answered: subs_total,
            subs_total,
            retries: 0,
            dropped_msgs: 0,
        }
    }

    /// Every sub-query fully resolved: the result is authoritative.
    pub fn is_complete(&self) -> bool {
        self.subs_resolved == self.subs_total
    }

    /// No sub-query produced any answer: the query failed outright.
    pub fn is_failed(&self) -> bool {
        self.subs_answered == 0 && self.subs_total > 0
    }

    /// Some but not all sub-queries resolved, or a walk was truncated:
    /// the owner set is usable but possibly incomplete.
    pub fn is_partial(&self) -> bool {
        !self.is_complete() && !self.is_failed()
    }
}

/// How one sub-query ended (see [`FaultyOutcome`] for the third state:
/// a *failed* sub-query is the lookup error its step returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubState {
    /// Every lookup succeeded and the directory walk ran to completion.
    Resolved,
    /// The owners were found, but a fault truncated the walk or lost a
    /// lookup the answer does not depend on: they may be incomplete.
    Degraded,
}

/// What a query is resolved under: a plan, and how its messages travel.
///
/// These are the combinations that have a meaning. Faults pair with the
/// parallel plan only — fault coins are keyed by the sub-query's index,
/// which the sequential plans' one-sub-query steps would all reset to 0 —
/// and never with a cache: a faulted route is not a pure function of
/// `(overlay, from, key)`.
#[derive(Debug)]
pub enum QueryMode<'a> {
    /// Every message delivered, every lookup routed for real.
    Direct(QueryPlan),
    /// Every message delivered, every lookup routed for real, range walks
    /// memoized over the current overlay epoch (every mutating op
    /// invalidates).
    Cached(QueryPlan, &'a mut RouteCache),
    /// The parallel plan while the [`FaultPlan`] injects message drops and
    /// routes around ungracefully failed nodes, with bounded retry,
    /// alternate-probe fallback and partial-result accounting. The `u64`
    /// identifies the query in the fault coin stream: the same pair always
    /// draws the same faults regardless of sharding.
    Faulty(&'a FaultPlan, u64),
}

/// A multi-attribute range-capable resource discovery system under test.
pub trait ResourceDiscovery {
    /// Short system name used in reports ("LORM", "Mercury", …).
    fn name(&self) -> &'static str;

    /// Deep-copy this system behind a fresh box — the snapshot primitive
    /// of the bed cache. The clone carries *all* state (overlay links,
    /// directories, RNGs), so driving the clone and the original through
    /// identical operation sequences yields identical results, and
    /// mutating one never observably affects the other.
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync>;

    /// Number of live physical nodes.
    fn num_physical(&self) -> usize;

    /// Is this physical node currently part of the system?
    fn is_live(&self, phys: usize) -> bool;

    /// Replace all stored directory state with ground-truth placement of
    /// `reports` — the steady state after every node's periodic
    /// `Insert(rescID, rescInfo)` report has been delivered.
    fn place_all(&mut self, reports: &[ResourceInfo]);

    /// Deliver one availability report through routed inserts from its
    /// owner, returning the routing cost. (The steady-state experiments
    /// use [`Self::place_all`]; this is the per-report path.)
    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError>;

    /// The per-sub-query step — the one hand-written query body of a
    /// system: derive the key(s) of `sub`, look them up from physical node
    /// `phys`, walk on for a range, and match the directory of every node
    /// the walk reached. Every lookup goes through [`Via::route_stats`]
    /// and every walk is a [`Via::walk`], with `msg` the sub-query's id in
    /// the fault coin stream.
    ///
    /// The step *adds* its cost to `out.tally` (counting a lookup before it
    /// is routed, so lost lookups are counted too) and its directory nodes
    /// to `out.probed`, and appends the matched owners — one entry per
    /// piece — to `out.owners`, which the caller hands over empty. A lookup
    /// without which the sub-query has no answer propagates its error: no
    /// owner has been appended by then.
    fn resolve_sub(
        &self,
        phys: usize,
        sub: &SubQuery,
        msg: u64,
        via: &mut Via<'_>,
        out: &mut QueryOutcome,
    ) -> Result<SubState, DhtError>;

    /// Resolve `q`, issued by physical node `phys`, under `mode` — the
    /// single driver behind every query entry point.
    ///
    /// [`QueryPlan::Parallel`] resolves every sub-query and joins the full
    /// owner sets at the requester. `Sequential` and `Adaptive` resolve
    /// sub-queries one at a time (ordered by [`planner::plan_order`]),
    /// threading the surviving candidate set and short-circuiting when it
    /// empties — remaining sub-queries are skipped entirely, their lookups
    /// never happen. All three plans return identical `owners`; `probed`
    /// differs as documented on [`QueryOutcome::probed`], and tally
    /// semantics are documented in [`crate::planner`]. A walk cache never
    /// alters a result, and neither does a fault plan under which no fault
    /// can fire.
    fn query(
        &self,
        phys: usize,
        q: &Query,
        mode: QueryMode<'_>,
    ) -> Result<FaultyOutcome, DhtError> {
        let (plan, mut via) = match mode {
            QueryMode::Direct(plan) => (plan, Via::Direct),
            QueryMode::Cached(plan, cache) => (plan, Via::Cached(cache)),
            // An inert plan travels direct: zero-fault runs stay
            // byte-identical to fault-free runs without drawing a coin.
            QueryMode::Faulty(faults, _) if faults.is_inert() => (QueryPlan::Parallel, Via::Direct),
            QueryMode::Faulty(faults, msg_seed) => {
                (QueryPlan::Parallel, Via::faulty(faults, msg_seed))
            }
        };
        if plan == QueryPlan::Parallel {
            return resolve_parallel(self, phys, q, &mut via);
        }
        let order = planner::plan_order(q, plan, self.selectivity());
        let outcome = planner::resolve_in_order(q, &order, &mut |single| {
            resolve_parallel(self, phys, single, &mut via).map(|f| f.outcome)
        })?;
        Ok(FaultyOutcome::complete(outcome, q.arity()))
    }

    /// Resolve `q` the paper's way: every message delivered, all
    /// sub-queries in parallel.
    fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError> {
        self.query(phys, q, QueryMode::Direct(QueryPlan::Parallel)).map(|f| f.outcome)
    }

    /// [`Self::query_from`] through a [`RouteCache`]: identical results,
    /// with the repeated range walks of a static bed replayed from
    /// memory.
    fn query_from_cached(
        &self,
        phys: usize,
        q: &Query,
        cache: &mut RouteCache,
    ) -> Result<QueryOutcome, DhtError> {
        self.query(phys, q, QueryMode::Cached(QueryPlan::Parallel, cache)).map(|f| f.outcome)
    }

    /// The per-attribute selectivity histograms maintained by this
    /// system, if it keeps any. The adaptive query plan consults this to
    /// order sub-queries most-selective-first; `None` (the default) makes
    /// [`QueryPlan::Adaptive`] degrade gracefully to document order.
    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        None
    }

    /// Resolve `q` under an explicit [`QueryPlan`], every message
    /// delivered.
    fn query_planned(
        &self,
        phys: usize,
        q: &Query,
        plan: QueryPlan,
    ) -> Result<QueryOutcome, DhtError> {
        self.query(phys, q, QueryMode::Direct(plan)).map(|f| f.outcome)
    }

    /// Resource-information pieces currently stored per live physical node
    /// (the directory-size distribution of Figure 3(b–d)).
    fn directory_loads(&self) -> LoadDist;

    /// Total stored pieces across all directories (Theorem 4.2's metric:
    /// MAAN stores two pieces per report, everyone else one).
    fn total_pieces(&self) -> usize;

    /// Distinct overlay outlinks maintained per live physical node
    /// (the structure-maintenance metric of Figure 3(a); Mercury pays this
    /// once per attribute hub).
    fn outlinks_per_node(&self) -> LoadDist;

    /// A new physical node joins (churn). Returns its id.
    fn join_physical(&mut self, rng: &mut SmallRng) -> Result<usize, DhtError>;

    /// Physical node `phys` departs gracefully (churn).
    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError>;

    /// Physical node `phys` fails abruptly: no handoff, no notifications —
    /// its directory contents are lost until the next reporting round and
    /// neighbors' links stay stale until repair.
    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError>;

    /// Run one maintenance round (stabilization / link repair) across the
    /// system's overlay(s). When replication is enabled this also repairs
    /// replica placement: copies whose primary died are promoted to the
    /// new owner, and under-replicated pieces are re-copied to their
    /// current targets (bandwidth accounted in [`Self::repair_stats`]).
    fn stabilize(&mut self);

    /// Enable replication at degree `k`: each stored piece lives on its
    /// owner plus `k - 1` neighbor-set replicas, seeded immediately from
    /// the current directories (the seeding is initial placement, not
    /// repair, so it is *not* counted in [`Self::repair_stats`]).
    ///
    /// `k <= 1` (the default everywhere) disables replication entirely —
    /// no replica state, no repair work, byte-identical behaviour to a
    /// build without this layer. The default impl ignores the request,
    /// which is exactly that contract.
    fn set_replication(&mut self, k: usize) {
        let _ = k;
    }

    /// The configured replication degree (`1` = unreplicated).
    fn replication(&self) -> usize {
        1
    }

    /// Cumulative replica-repair bandwidth counters (zero while
    /// unreplicated).
    fn repair_stats(&self) -> RepairStats {
        RepairStats::default()
    }

    /// Append the [`PieceKey`] of every piece currently reachable on a
    /// *live* node — primaries and replicas both. The caller owns
    /// canonicalization (sort + dedup); duplicate registrations of one
    /// logical piece are expected and collapse there.
    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>);

    /// Check the store-path invariants — storage covers every overlay
    /// arena exactly, retired slots hold nothing, the physical-node map
    /// agrees with overlay membership — naming the first one broken.
    /// Implementations `debug_assert!` this at the end of every mutating
    /// operation; it is O(arena) and compiled out of release builds.
    fn check_invariants(&self) -> Result<(), String>;
}

impl Clone for Box<dyn ResourceDiscovery + Send + Sync> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The parallel plan: run every sub-query's step, then join at the
/// requester. Under faults a sub-query whose lookup never reached a
/// directory node within the retry budget is *failed* — it contributes its
/// wasted hops and no owner set — and once the per-query hop budget is
/// exhausted the remaining sub-queries fail unattempted.
fn resolve_parallel<S: ResourceDiscovery + ?Sized>(
    sys: &S,
    phys: usize,
    q: &Query,
    via: &mut Via<'_>,
) -> Result<FaultyOutcome, DhtError> {
    let hop_budget = via.hop_budget();
    let mut out = QueryOutcome::default();
    let mut per_sub: Vec<Vec<usize>> = Vec::with_capacity(q.subs.len());
    let mut subs_resolved = 0usize;
    for (i, sub) in q.subs.iter().enumerate() {
        if out.tally.hops >= hop_budget {
            continue;
        }
        match sys.resolve_sub(phys, sub, via.sub_msg(i), via, &mut out) {
            Ok(state) => {
                subs_resolved += usize::from(state == SubState::Resolved);
                per_sub.push(std::mem::take(&mut out.owners));
            }
            Err(DhtError::MessageDropped { hops } | DhtError::DeadHop { hops }) => {
                out.tally.hops += hops;
            }
            Err(e) => return Err(e),
        }
    }
    let subs_answered = per_sub.len();
    out.owners = join_owners(per_sub);
    let acct = via.account();
    Ok(FaultyOutcome {
        outcome: out,
        subs_resolved,
        subs_answered,
        subs_total: q.arity(),
        retries: acct.retries,
        dropped_msgs: acct.dropped_msgs,
    })
}

/// The requester-side "database-like join on `ip_addr`": intersect the
/// per-sub-query owner sets, returning owners that satisfy every
/// constraint, strictly ascending. Inputs are the matched owners of each
/// sub-query, in any order and with repeats.
pub fn join_owners(mut per_sub: Vec<Vec<usize>>) -> Vec<usize> {
    let Some(mut acc) = per_sub.pop() else {
        return Vec::new();
    };
    acc.sort_unstable();
    acc.dedup();
    for mut set in per_sub {
        set.sort_unstable();
        set.dedup();
        intersect_sorted(&mut acc, &set);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_of_nothing_is_empty() {
        assert!(join_owners(vec![]).is_empty());
    }

    #[test]
    fn join_single_set_dedupes() {
        assert_eq!(join_owners(vec![vec![3, 1, 3, 2]]), vec![1, 2, 3]);
    }

    #[test]
    fn join_intersects() {
        let r = join_owners(vec![vec![1, 2, 3, 4], vec![2, 4, 6], vec![4, 2, 0]]);
        assert_eq!(r, vec![2, 4]);
    }

    #[test]
    fn join_with_empty_set_is_empty() {
        let r = join_owners(vec![vec![1, 2], vec![]]);
        assert!(r.is_empty());
    }

    #[test]
    fn join_disjoint_is_empty() {
        let r = join_owners(vec![vec![1, 3], vec![2, 4]]);
        assert!(r.is_empty());
    }

    #[test]
    fn query_outcome_default_is_zero() {
        let o = QueryOutcome::default();
        assert_eq!(o.tally, LookupTally::default());
        assert!(o.owners.is_empty());
    }

    #[test]
    fn complete_faulty_outcome_classifies_as_complete() {
        let f = FaultyOutcome::complete(QueryOutcome::default(), 3);
        assert!(f.is_complete());
        assert!(!f.is_partial());
        assert!(!f.is_failed());
        assert_eq!(f.subs_resolved, 3);
        assert_eq!(f.subs_answered, 3);
        assert_eq!(f.retries, 0);
        assert_eq!(f.dropped_msgs, 0);
    }

    #[test]
    fn all_subs_failed_classifies_as_failed() {
        let f = FaultyOutcome { subs_total: 2, ..FaultyOutcome::default() };
        assert!(f.is_failed());
        assert!(!f.is_partial());
        assert!(!f.is_complete());
    }

    #[test]
    fn mixed_subs_classify_as_partial() {
        // One sub resolved, one failed.
        let f = FaultyOutcome {
            subs_resolved: 1,
            subs_answered: 1,
            subs_total: 2,
            ..FaultyOutcome::default()
        };
        assert!(f.is_partial());
        // All answered but one walk truncated: still partial.
        let g = FaultyOutcome {
            subs_resolved: 1,
            subs_answered: 2,
            subs_total: 2,
            ..FaultyOutcome::default()
        };
        assert!(g.is_partial());
        assert!(!g.is_failed());
    }
}
