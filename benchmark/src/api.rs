//! Every call `lormbench` makes into the workspace under test.
//!
//! No other module of the benchmark names a function or method of the
//! `crates/*` packages: they pass the re-exported data types around and
//! call the functions below. A refactor of the workspace (roadmap item 1
//! collapses `query_from*` / `run_batch_*`) therefore has to keep exactly
//! this file compiling, and a follow-up `benchmark` PR re-points it. The
//! signatures are listed in `benchmark/README.md`.
//!
//! Three groups: the end-to-end path (what a cell runs), the replay entry
//! points (the same layer calls the systems make, reachable one layer at
//! a time through the systems' public accessors), and bed-level probes.

use baselines::{Maan, MaanConfig, Mercury, MercuryConfig, Sword, SwordConfig};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{route_with_retry, DhtError, FaultAccount, FaultPlan, Overlay, Summary};
use grid_resource::{planner, ChurnSchedule, Directory, ResourceDiscovery};
use lorm::{Lorm, LormConfig};
use rand::rngs::SmallRng;
use sim::experiments::{
    query_batch, run_batch_planned_cached_sharded, run_batch_planned_sharded, Metric,
};

pub use analysis::System;
pub use dht_core::{LookupTally, NodeIdx, RouteCache, RouteStats};
pub use grid_resource::{
    AttrId, ChurnKind, Query, QueryMix, QueryOutcome, QueryPlan, ResourceInfo, SubQuery,
    ValueTarget, Workload,
};
pub use sim::SimConfig;

/// The four systems, in the order every per-system array uses.
pub const SYSTEMS: [System; 4] = System::ALL;

/// Display name of a system ("LORM", "Mercury", "SWORD", "MAAN").
pub fn system_name(system: System) -> &'static str {
    system.name()
}

/// One mounted discovery system, as `sim` hands it out.
pub type Sys = Box<dyn ResourceDiscovery + Send + Sync>;
/// A borrowed system: what every query entry point takes.
pub type SysRef<'a> = &'a (dyn ResourceDiscovery + Send + Sync);
/// A query batch: `(origin physical node, query)` pairs.
pub type Batch = Vec<(usize, Query)>;

// ---------------------------------------------------------------------
// End-to-end path
// ---------------------------------------------------------------------

/// The workload (attribute space + reports) a bed with this config mounts.
pub fn generate_workload(cfg: &SimConfig) -> Workload {
    sim::TestBed::workload_of(cfg).0
}

/// `count` queries, each from its own uniformly random origin.
pub fn generate_queries(
    workload: &Workload,
    num_phys: usize,
    count: usize,
    arity: usize,
    mix: QueryMix,
    seed: u64,
) -> Batch {
    query_batch(workload, num_phys, count, 1, arity, mix, seed)
}

/// Poisson join/departure schedule as `(time, kind)` pairs in time order.
pub fn generate_churn(
    rate: f64,
    duration: f64,
    graceful_ratio: f64,
    rng: &mut SmallRng,
) -> Vec<(f64, ChurnKind)> {
    ChurnSchedule::generate_with_failures(rate, duration, graceful_ratio, rng)
        .events()
        .iter()
        .map(|e| (e.time, e.kind))
        .collect()
}

/// Build one system with every report placed.
pub fn build(system: System, workload: &Workload, cfg: &SimConfig) -> Sys {
    sim::build_system(system, workload, cfg)
}

/// Deep-copy a system (the bed-snapshot primitive).
pub fn clone_system(sys: SysRef<'_>) -> Sys {
    sys.clone_box()
}

/// `sim`'s micro-chunk executor over a whole batch; returns the number of
/// queries that failed. With a cache it is the locality-sorted cached
/// executor, without one the plain executor.
pub fn run_executor(
    sys: SysRef<'_>,
    batch: &[(usize, Query)],
    plan: QueryPlan,
    shards: usize,
    cache: Option<&mut RouteCache>,
) -> u64 {
    let summary = match cache {
        Some(cache) => {
            run_batch_planned_cached_sharded(sys, batch, Metric::Hops, plan, shards, cache)
        }
        None => run_batch_planned_sharded(sys, batch, Metric::Hops, plan, shards),
    };
    summary.failures()
}

/// One query under an explicit plan; `None` when the system returned `Err`.
pub fn query_planned(
    sys: SysRef<'_>,
    phys: usize,
    q: &Query,
    plan: QueryPlan,
) -> Option<QueryOutcome> {
    sys.query_planned(phys, q, plan).ok()
}

/// One parallel-plan query through a route cache (the churn path).
pub fn query_cached(
    sys: SysRef<'_>,
    phys: usize,
    q: &Query,
    cache: &mut RouteCache,
) -> Option<QueryOutcome> {
    sys.query_from_cached(phys, q, cache).ok()
}

/// A mutating operation of the churn workload.
pub enum ChurnOp<'a> {
    /// A new physical node joins.
    Join(&'a mut SmallRng),
    /// Graceful departure (handoff).
    Leave(usize),
    /// Abrupt failure (no handoff).
    Fail(usize),
    /// One maintenance round.
    Stabilize,
    /// Replace all stored state by ground-truth placement.
    PlaceAll(&'a [ResourceInfo]),
    /// One routed report insert.
    Register(ResourceInfo),
}

/// Apply one churn operation; the tally is the routing cost of a
/// `Register` (zero otherwise), `None` when the system returned `Err`.
pub fn churn_op(sys: &mut Sys, op: ChurnOp<'_>) -> Option<LookupTally> {
    let none = LookupTally::default();
    match op {
        ChurnOp::Join(rng) => sys.join_physical(rng).ok().map(|_| none),
        ChurnOp::Leave(p) => sys.leave_physical(p).ok().map(|()| none),
        ChurnOp::Fail(p) => sys.fail_physical(p).ok().map(|()| none),
        ChurnOp::Stabilize => {
            sys.stabilize();
            Some(none)
        }
        ChurnOp::PlaceAll(reports) => {
            sys.place_all(reports);
            Some(none)
        }
        ChurnOp::Register(info) => sys.register(info).ok(),
    }
}

/// Is this physical node currently part of the system?
pub fn is_live(sys: SysRef<'_>, phys: usize) -> bool {
    sys.is_live(phys)
}

/// `[route hits, route misses, walk hits, walk misses]` of a cache.
pub fn cache_counters(cache: &RouteCache) -> [u64; 4] {
    [cache.hits(), cache.misses(), cache.walk_hits(), cache.walk_misses()]
}

// ---------------------------------------------------------------------
// Replay entry points
// ---------------------------------------------------------------------

/// The four systems as concrete types: deterministic twins of what
/// [`build`] returns, so their overlays and directories are reachable.
pub struct Twins {
    /// LORM over one Cycloid.
    pub lorm: Lorm,
    /// Mercury: one Chord hub per attribute.
    pub mercury: Mercury,
    /// SWORD over one Chord ring.
    pub sword: Sword,
    /// MAAN over one Chord ring.
    pub maan: Maan,
}

impl Twins {
    /// The same constructor calls and placement as `sim::build_system`.
    pub fn build(workload: &Workload, cfg: &SimConfig) -> Self {
        let (n, seed, space) = (cfg.nodes, cfg.seed, &workload.space);
        let lorm_cfg = LormConfig { dimension: cfg.dimension, seed, ..LormConfig::default() };
        let mut t = Self {
            lorm: Lorm::new(n, space, lorm_cfg),
            mercury: Mercury::new(n, space, MercuryConfig { seed }),
            sword: Sword::new(n, space, SwordConfig { seed }),
            maan: Maan::new(n, space, MaanConfig { seed }),
        };
        t.lorm.place_all(&workload.reports);
        t.mercury.place_all(&workload.reports);
        t.sword.place_all(&workload.reports);
        t.maan.place_all(&workload.reports);
        t
    }
}

/// The layer calls one system makes for one sub-query, one call each.
/// At construction physical node `p` is overlay node `NodeIdx(p)` in all
/// four systems, which is what the replay (static beds only) relies on.
pub trait Layers {
    /// Overlay key type (`CycloidId` or a Chord ring position).
    type Key: Copy;
    /// The system as the end-to-end path sees it.
    fn system(&self) -> SysRef<'_>;
    /// Lookup keys of a sub-query in the order the system routes them;
    /// the walk starts at the last one's root.
    fn keys(&self, sub: &SubQuery, out: &mut Vec<Self::Key>);
    /// One overlay lookup (`route_stats`).
    fn route(&self, attr: AttrId, from: NodeIdx, key: Self::Key) -> Option<RouteStats>;
    /// Append every node that checks its directory for `sub`, beginning
    /// with `start` (the root the last lookup reached): a range walks on
    /// with `ChordHost::walk_range_into`, or with `Cycloid::cluster_successor`
    /// until `probes` nodes are listed (LORM's stop rule is private, so the
    /// caller passes the count the real query reported).
    fn walk(&self, sub: &SubQuery, start: NodeIdx, probes: usize, out: &mut Vec<NodeIdx>);
    /// The directory a probed node checks for this attribute.
    fn directory(&self, attr: AttrId, node: NodeIdx) -> &Directory;
}

fn range_of(sub: &SubQuery) -> (f64, Option<f64>) {
    match sub.target {
        ValueTarget::Point(v) => (v, None),
        ValueTarget::Range { low, high } => (low, Some(high)),
    }
}

impl Layers for Lorm {
    type Key = CycloidId;
    fn system(&self) -> SysRef<'_> {
        self
    }
    fn keys(&self, sub: &SubQuery, out: &mut Vec<CycloidId>) {
        out.push(self.keys().resc_id(sub.attr, range_of(sub).0));
    }
    fn route(&self, _attr: AttrId, from: NodeIdx, key: CycloidId) -> Option<RouteStats> {
        self.overlay().route_stats(from, key).ok()
    }
    fn walk(&self, _sub: &SubQuery, start: NodeIdx, probes: usize, out: &mut Vec<NodeIdx>) {
        out.push(start);
        let mut cur = start;
        for _ in 1..probes {
            match self.overlay().cluster_successor(cur) {
                Ok(Some(next)) => {
                    out.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
    }
    fn directory(&self, _attr: AttrId, node: NodeIdx) -> &Directory {
        Lorm::directory(self, node)
    }
}

impl Layers for Mercury {
    type Key = u64;
    fn system(&self) -> SysRef<'_> {
        self
    }
    fn keys(&self, sub: &SubQuery, out: &mut Vec<u64>) {
        out.push(self.value_key(range_of(sub).0));
    }
    fn route(&self, attr: AttrId, from: NodeIdx, key: u64) -> Option<RouteStats> {
        self.hub(attr).net().route_stats(from, key).ok()
    }
    fn walk(&self, sub: &SubQuery, start: NodeIdx, _probes: usize, out: &mut Vec<NodeIdx>) {
        match range_of(sub) {
            (lo, Some(hi)) => self.hub(sub.attr).walk_range_into(
                start,
                self.value_key(lo),
                self.value_key(hi),
                out,
            ),
            _ => out.push(start),
        }
    }
    fn directory(&self, attr: AttrId, node: NodeIdx) -> &Directory {
        self.hub(attr).directory(node)
    }
}

impl Layers for Sword {
    type Key = u64;
    fn system(&self) -> SysRef<'_> {
        self
    }
    fn keys(&self, sub: &SubQuery, out: &mut Vec<u64>) {
        out.push(self.key_of(sub.attr));
    }
    fn route(&self, _attr: AttrId, from: NodeIdx, key: u64) -> Option<RouteStats> {
        self.host().net().route_stats(from, key).ok()
    }
    fn walk(&self, _sub: &SubQuery, start: NodeIdx, _probes: usize, out: &mut Vec<NodeIdx>) {
        out.push(start);
    }
    fn directory(&self, _attr: AttrId, node: NodeIdx) -> &Directory {
        self.host().directory(node)
    }
}

impl Layers for Maan {
    type Key = u64;
    fn system(&self) -> SysRef<'_> {
        self
    }
    fn keys(&self, sub: &SubQuery, out: &mut Vec<u64>) {
        out.push(self.attr_key(sub.attr));
        out.push(self.value_key(range_of(sub).0));
    }
    fn route(&self, _attr: AttrId, from: NodeIdx, key: u64) -> Option<RouteStats> {
        self.host().net().route_stats(from, key).ok()
    }
    fn walk(&self, sub: &SubQuery, start: NodeIdx, _probes: usize, out: &mut Vec<NodeIdx>) {
        match range_of(sub) {
            (lo, Some(hi)) => {
                self.host().walk_range_into(start, self.value_key(lo), self.value_key(hi), out);
            }
            _ => out.push(start),
        }
    }
    fn directory(&self, _attr: AttrId, node: NodeIdx) -> &Directory {
        self.host().directory(node)
    }
}

/// The directory check of one probed node (`matching_owners_into`).
pub fn directory_match(dir: &Directory, sub: &SubQuery, out: &mut Vec<usize>) {
    dir.matching_owners_into(sub.attr, &sub.target, out);
}

/// The planner's sub-query order for `q` on this system.
pub fn plan_order(sys: SysRef<'_>, q: &Query, plan: QueryPlan) -> Vec<usize> {
    planner::plan_order(q, plan, sys.selectivity())
}

/// One selectivity estimate (0 when the system keeps no histograms).
pub fn estimate(sys: SysRef<'_>, sub: &SubQuery) -> f64 {
    sys.selectivity().map_or(0.0, |sel| sel.estimate(sub))
}

/// The adaptive plan's in-place join of two sorted owner sets.
pub fn intersect(acc: &mut Vec<usize>, other: &[usize]) {
    planner::intersect_sorted(acc, other);
}

/// The sequential plans' candidate-threading loop over `q` in `order`,
/// handed ready sub-query answers (in the order it asks for them) instead
/// of a system to route through; `None` when `answers` runs dry.
pub fn resolve_in_order(
    q: &Query,
    order: &[usize],
    answers: &mut dyn Iterator<Item = QueryOutcome>,
) -> Option<QueryOutcome> {
    let mut next = |_: &Query| answers.next().ok_or(DhtError::EmptyOverlay);
    planner::resolve_in_order(q, order, &mut next).ok()
}

/// The parallel plan's requester-side join of all sub-query owner lists.
pub fn join_owners(per_sub: Vec<Vec<usize>>) -> Vec<usize> {
    grid_resource::discovery::join_owners(per_sub)
}

// ---------------------------------------------------------------------
// Bed-level probes
// ---------------------------------------------------------------------

/// A stabilized Chord ring of `n` nodes.
pub fn chord_build(n: usize, seed: u64) -> Chord {
    Chord::build(n, ChordConfig { seed, ..ChordConfig::default() })
}

/// Recompute every node's fingers and successor list from membership.
pub fn chord_rebuild_all_state(net: &mut Chord) {
    net.rebuild_all_state();
}

/// One stabilization round over every node.
pub fn chord_stabilize_all(net: &mut Chord) {
    net.stabilize_all();
}

/// A stabilized Cycloid of `n` nodes and dimension `d`.
pub fn cycloid_build(n: usize, dimension: u8, seed: u64) -> Cycloid {
    Cycloid::build(n, CycloidConfig { dimension, seed })
}

/// Recompute every node's links from membership.
pub fn cycloid_rebuild_all_links(net: &mut Cycloid) {
    net.rebuild_all_links();
}

/// Load a whole report batch into one empty directory.
pub fn directory_bulk_load(batch: Vec<ResourceInfo>) -> Directory {
    let mut dir = Directory::new();
    dir.bulk_load(batch);
    dir
}

/// A summary of the given samples (input of [`summary_merge`]).
pub fn summary_of(values: &[f64]) -> Summary {
    let mut s = Summary::new();
    for &v in values {
        s.record(v);
    }
    s
}

/// The executor's reduction step: fold `parts` in order.
pub fn summary_merge(parts: &[Summary]) -> Summary {
    let mut merged = Summary::new();
    for p in parts {
        merged.merge(p);
    }
    merged
}

/// A fault plan that drops each message with probability `drop_rate`.
pub fn fault_plan(seed: u64, drop_rate: f64) -> FaultPlan {
    FaultPlan::new(seed, drop_rate, 0.0).expect("drop rate is a constant in [0, 1]")
}

/// One lookup on SWORD's ring under a fault plan, with bounded retry
/// (`route_stats_faulty` per attempt); returns the retries it spent, or
/// `None` when every attempt was dropped.
pub fn fault_route(
    sword: &Sword,
    from: NodeIdx,
    key: u64,
    plan: &FaultPlan,
    msg: u64,
) -> Option<u64> {
    let mut acct = FaultAccount::default();
    route_with_retry(sword.host().net(), from, key, plan, msg, &mut acct).ok().map(|_| acct.retries)
}
