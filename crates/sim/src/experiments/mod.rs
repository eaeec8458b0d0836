//! One module per paper artifact (figure / theorem) plus ablations.

pub mod ablation;
pub mod chaos;
pub mod durability;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod latency;
pub mod maintenance;
pub mod worstcase;

use analysis::System;
use dht_core::{hashing::splitmix64, DhtError, FaultPlan, RouteCache, Summary};
use grid_resource::{
    ChurnEvent, ChurnKind, ChurnSchedule, FaultyOutcome, Query, QueryMix, QueryMode, QueryOutcome,
    QueryPlan, ResourceDiscovery, Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generate the paper's query batch: `origins` random requester nodes,
/// `per_origin` queries each, all with the given arity and mix.
pub fn query_batch(
    workload: &Workload,
    num_phys: usize,
    origins: usize,
    per_origin: usize,
    arity: usize,
    mix: QueryMix,
    seed: u64,
) -> Vec<(usize, Query)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(origins * per_origin);
    for _ in 0..origins {
        let phys = rng.gen_range(0..num_phys);
        for _ in 0..per_origin {
            batch.push((phys, workload.random_query(arity, mix, &mut rng)));
        }
    }
    batch
}

/// Reduction granularity of [`fold_batch`]: every query is folded into
/// the accumulator of its `MICRO_CHUNK`-sized slice, and the accumulators
/// are handed over in batch order, whatever the shard count. A reduction
/// over them — [`run_batch`]'s summary merge — then runs in a sequence
/// that is a function of the batch alone, which makes every summary field
/// — including the variance, whose merge is not associative in floating
/// point — bit-identical across shard counts.
const MICRO_CHUNK: usize = 64;

/// What a batch's queries resolve under. A cache never alters results, so
/// every fault-free mode yields bit-identical summaries at every shard
/// count.
#[derive(Debug)]
pub enum BatchMode<'a> {
    /// Every query from scratch under the plan.
    Direct(QueryPlan),
    /// Range walks through a walk cache. On one worker the caller's cache
    /// persists across the whole batch (the perf harness warms it and then
    /// measures its hit rate); several workers each run their own fresh
    /// cache. A cache must never outlive its system's overlay state: two
    /// bed clones can share an epoch value while holding different links.
    Cached(QueryPlan, &'a mut RouteCache),
    /// The parallel plan under a fault plan. Fault coins are a pure
    /// function of `(plan seed, global batch position)`, so the
    /// degradation counters are bit-identical across shard counts too, and
    /// an inert plan reproduces [`BatchMode::Direct`] bit for bit.
    Faulty(&'a FaultPlan),
}

/// The paper's mode: every query from scratch, all sub-queries in
/// parallel.
pub const PARALLEL: BatchMode<'static> = BatchMode::Direct(QueryPlan::Parallel);

/// What one worker resolves its queries under (a [`BatchMode`] minus the
/// caches, which are handed out per worker).
#[derive(Clone, Copy)]
enum Resolve<'a> {
    Plan(QueryPlan),
    Faults(&'a FaultPlan),
}

/// The fault-coin seed of the query at global batch position `index`: a
/// pure function of the plan seed and the position, so sharding can
/// never change which faults a query draws.
fn msg_seed_at(plan: &FaultPlan, index: usize) -> u64 {
    splitmix64(plan.seed() ^ index as u64)
}

/// One query's result as the executor hands it over.
pub type Resolved = Result<FaultyOutcome, DhtError>;

/// The outcome of a query the executor counts as answered: `None` for an
/// error, or for an outcome no sub-query answered — exactly what
/// [`observe`] records as a failure.
pub fn answered(r: &Resolved) -> Option<&QueryOutcome> {
    r.as_ref().ok().filter(|f| !f.is_failed()).map(|f| &f.outcome)
}

/// Record one query's result in `s`, the way every batch summary counts:
/// a failure when it is not [`answered`], a partial observation of
/// `value` when a sub-query degraded or failed, a plain observation
/// otherwise. Retries and dropped messages add up whatever the class.
pub fn observe(s: &mut Summary, r: &Resolved, value: impl FnOnce(&QueryOutcome) -> f64) {
    let Ok(f) = r else { return s.record_failure() };
    if f.is_failed() {
        s.record_failure();
    } else if f.is_partial() {
        s.record_partial(value(&f.outcome));
    } else {
        s.record(value(&f.outcome));
    }
    s.add_retries(f.retries);
    s.add_dropped_msgs(f.dropped_msgs);
}

/// Run `work` on one scoped thread per item and collect the results in
/// item order. Every thread fan-out in this crate — shard workers over
/// their micro-chunk runs, one worker per mounted system — goes through
/// here.
pub(crate) fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.into_iter().map(|item| scope.spawn(move || work(item))).collect();
        // lint:allow(panic-hygiene): join fails only if the worker
        // panicked; re-raising that panic is the intended behaviour.
        handles.into_iter().map(|h| h.join().expect("fan-out worker panicked")).collect()
    })
}

/// Event-clock ticks per simulated second of the churn loop Figure 6 and
/// the durability sweep share: Figure 6 issues one request per tick, so
/// the paper's 10 000 requests span 1 000 simulated seconds, and both
/// apply churn events and maintenance boundaries at tick granularity.
pub const TICKS_PER_SECOND: f64 = 10.0;

/// Simulated seconds between periodic maintenance rounds in both churn
/// loops (stabilize, plus Figure 6's re-report of every resource).
pub const MAINTENANCE_PERIOD: f64 = 50.0;

/// The churn loop Figure 6 and the durability sweep share: a cursor over a
/// [`ChurnSchedule`] that applies the events due by `now` to one system,
/// and the live-node picker both experiments draw origins and victims
/// with. One definition, so the RNG draw order — and with it every byte
/// of both reports — cannot drift between the two.
pub(crate) struct ChurnCursor<'a> {
    events: std::iter::Peekable<std::slice::Iter<'a, ChurnEvent>>,
    /// One past the highest physical id handed out so far.
    max_phys: usize,
    /// Events applied so far.
    pub(crate) applied: usize,
}

impl<'a> ChurnCursor<'a> {
    pub(crate) fn new(schedule: &'a ChurnSchedule, sys: &dyn ResourceDiscovery) -> Self {
        Self {
            events: schedule.events().iter().peekable(),
            max_phys: sys.num_physical(),
            applied: 0,
        }
    }

    /// A uniformly random live physical node (64 draws, then give up).
    pub(crate) fn pick_live(
        &self,
        sys: &dyn ResourceDiscovery,
        rng: &mut SmallRng,
    ) -> Option<usize> {
        (0..64).map(|_| rng.gen_range(0..self.max_phys)).find(|&p| sys.is_live(p))
    }

    /// Apply every event scheduled up to `now`. A `Leave` is a handoff
    /// when `graceful` and an abrupt failure otherwise; a `Fail` is abrupt
    /// regardless. Departures stop at two live nodes.
    pub(crate) fn apply_due(
        &mut self,
        sys: &mut dyn ResourceDiscovery,
        now: f64,
        graceful: bool,
        rng: &mut SmallRng,
    ) {
        while let Some(e) = self.events.next_if(|e| e.time <= now) {
            match e.kind {
                ChurnKind::Join => {
                    if sys.join_physical(rng).is_ok() {
                        self.max_phys += 1;
                    }
                }
                ChurnKind::Leave | ChurnKind::Fail if sys.num_physical() > 2 => {
                    if let Some(p) = self.pick_live(sys, rng) {
                        let _ = if graceful && e.kind == ChurnKind::Leave {
                            sys.leave_physical(p)
                        } else {
                            sys.fail_physical(p)
                        };
                    }
                }
                ChurnKind::Leave | ChurnKind::Fail => {}
            }
            self.applied += 1;
        }
    }
}

/// The one resolve loop: run every query of `batch` against `sys` under
/// `mode` on `shards` workers, folding each query's result, in batch
/// order, into the accumulator of its micro-chunk, and hand every
/// micro-chunk's accumulator to `take`, in batch order. `shards == 0`
/// means one worker per available core — this is the one place that is
/// resolved, so every caller (figures, chaos, durability, the CLI's
/// `--shards`) reads 0 the same way; one worker runs inline on the calling
/// thread and hands each accumulator over as soon as its chunk is done.
///
/// Each worker takes a contiguous run of micro-chunks, so the shard count
/// decides only *which thread* folds each micro-chunk, never what a fold
/// sees or the order `take` sees the accumulators in.
pub fn fold_batch<A: Default + Send>(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    mode: BatchMode<'_>,
    shards: usize,
    fold: impl Fn(&mut A, Resolved) + Sync,
    mut take: impl FnMut(A),
) {
    let micro: Vec<(usize, &[(usize, Query)])> = batch.chunks(MICRO_CHUNK).enumerate().collect();
    let shards = match shards {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let per_worker = micro.len().div_ceil(shards).max(1);
    let workers = micro.len().div_ceil(per_worker);
    let mut fresh: Vec<RouteCache> = Vec::new();
    // One entry per worker.
    let no_caches = || (0..workers).map(|_| None).collect();
    let (resolve, caches): (Resolve<'_>, Vec<Option<&mut RouteCache>>) = match mode {
        BatchMode::Direct(plan) => (Resolve::Plan(plan), no_caches()),
        BatchMode::Faulty(faults) => (Resolve::Faults(faults), no_caches()),
        BatchMode::Cached(plan, own) if workers <= 1 => (Resolve::Plan(plan), vec![Some(own)]),
        BatchMode::Cached(plan, _) => {
            fresh.resize_with(workers, RouteCache::new);
            (Resolve::Plan(plan), fresh.iter_mut().map(Some).collect())
        }
    };
    // A chunk holding a cache differs from a plain one only in the
    // [`QueryMode`] it passes; `i` is the chunk's index in the batch.
    let fold_chunk = |&(i, chunk): &(usize, &[(usize, Query)]),
                      cache: &mut Option<&mut RouteCache>| {
        let mut acc = A::default();
        for (j, (phys, q)) in chunk.iter().enumerate() {
            let mode = match (resolve, cache.as_deref_mut()) {
                (Resolve::Plan(plan), None) => QueryMode::Direct(plan),
                (Resolve::Plan(plan), Some(cache)) => QueryMode::Cached(plan, cache),
                (Resolve::Faults(plan), _) => {
                    QueryMode::Faulty(plan, msg_seed_at(plan, i * MICRO_CHUNK + j))
                }
            };
            fold(&mut acc, sys.query(*phys, q, mode));
        }
        acc
    };
    if workers <= 1 {
        let mut cache = caches.into_iter().next().flatten();
        micro.iter().for_each(|chunk| take(fold_chunk(chunk, &mut cache)));
        return;
    }
    let parts = fan_out(micro.chunks(per_worker).zip(caches), |(chunks, mut cache)| {
        chunks.iter().map(|chunk| fold_chunk(chunk, &mut cache)).collect::<Vec<_>>()
    });
    parts.into_iter().flatten().for_each(take);
}

/// One value per query, in batch order: [`fold_batch`] mapping every
/// result, for the artifacts that reduce a batch their own way.
pub fn map_batch<T: Send>(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    mode: BatchMode<'_>,
    shards: usize,
    map: impl Fn(Resolved) -> T + Sync,
) -> Vec<T> {
    let mut out = Vec::with_capacity(batch.len());
    fold_batch(sys, batch, mode, shards, |v: &mut Vec<T>, r| v.push(map(r)), |v| out.extend(v));
    out
}

/// Summarize a chosen metric over a query batch on `shards` workers (as
/// [`fold_batch`] reads them): one [`observe`] per query into its
/// micro-chunk's summary, the summaries merged in batch order. Failed
/// queries are counted via [`Summary::failures`] instead of being
/// silently dropped.
pub fn run_batch(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    mode: BatchMode<'_>,
    shards: usize,
) -> Summary {
    let mut merged = Summary::new();
    let observe_metric = |s: &mut Summary, r| observe(s, &r, |o| metric.of(&o.tally));
    fold_batch(sys, batch, mode, shards, observe_metric, |part| merged.merge(&part));
    merged
}

/// [`run_batch`] from scratch under an explicit [`QueryPlan`].
pub fn run_batch_planned_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
) -> Summary {
    run_batch(sys, batch, metric, BatchMode::Direct(plan), shards)
}

/// [`run_batch`] through the caller's walk cache under an explicit
/// [`QueryPlan`] (see [`BatchMode::Cached`]).
pub fn run_batch_planned_cached_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
    cache: &mut RouteCache,
) -> Summary {
    run_batch(sys, batch, metric, BatchMode::Cached(plan, cache), shards)
}

/// How a figure pipeline executes its query batches. The two always
/// travel together from the CLI to [`run_batch_all`]; `plan` changes what
/// a query costs (never what it answers), while no choice of `shards`
/// moves a report by one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exec {
    /// The multi-attribute query plan (default: the paper's parallel one).
    pub plan: QueryPlan,
    /// Workers per query batch, as [`run_batch`] reads it (`0`: one per
    /// available core).
    pub shards: usize,
}

/// Run the same batch against every mounted system in parallel (one
/// thread per system — they are independent and queries take `&self` —
/// each of which shards its batch further, for `systems × exec.shards`
/// total workers), every query from scratch under `exec.plan`.
pub fn run_batch_all(
    systems: &[Box<dyn ResourceDiscovery + Send + Sync>],
    batch: &[(usize, Query)],
    metric: Metric,
    exec: Exec,
) -> Vec<(&'static str, Summary)> {
    fan_out(systems, |sys| {
        let mode = BatchMode::Direct(exec.plan);
        (sys.name(), run_batch(sys.as_ref(), batch, metric, mode, exec.shards))
    })
}

/// Which tally field an experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Logical routing hops (Figures 4, 6(a)).
    Hops,
    /// Visited directory nodes (Figures 5, 6(b)).
    Visited,
    /// Resource-information pieces shipped to the requester — the
    /// transfer-volume metric the query plans differ on.
    Matches,
    /// DHT lookups issued (sequential plans skip lookups after an empty
    /// intersection, so this is plan-sensitive too).
    Lookups,
}

impl Metric {
    /// Extract this metric's value from a query tally.
    pub fn of(self, tally: &dht_core::LookupTally) -> f64 {
        match self {
            Metric::Hops => tally.hops as f64,
            Metric::Visited => tally.visited as f64,
            Metric::Matches => tally.matches as f64,
            Metric::Lookups => tally.lookups as f64,
        }
    }
}

pub(crate) fn summary_of<'a>(rows: &'a [(&'static str, Summary)], s: System) -> &'a Summary {
    rows.iter().find(|(n, _)| *n == s.name()).map(|(_, x)| x).expect("system measured")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{SimConfig, TestBed};

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        // run_batch_all fans the systems out over threads (and each system
        // shards its batch); every summary must be bit-identical to a
        // single-threaded, single-shard run.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 20, 2, 2, QueryMix::Range, 0x77);
        let parallel = run_batch_all(&bed.systems, &batch, Metric::Visited, Exec::default());
        for (name, par) in &parallel {
            let sys = bed.systems.iter().find(|s| s.name() == *name).unwrap();
            let seq = run_batch(sys.as_ref(), &batch, Metric::Visited, PARALLEL, 1);
            assert_eq!(par.count(), seq.count(), "{name}");
            assert_eq!(par.failures(), seq.failures(), "{name}");
            assert_eq!(par.total().to_bits(), seq.total().to_bits(), "{name}");
            assert_eq!(par.mean().to_bits(), seq.mean().to_bits(), "{name}");
            assert_eq!(par.min().to_bits(), seq.min().to_bits(), "{name}");
            assert_eq!(par.max().to_bits(), seq.max().to_bits(), "{name}");
        }
    }

    #[test]
    fn sharded_batch_is_bit_identical_for_every_shard_count() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x3A);
        for sys in &bed.systems {
            let seq = run_batch(sys.as_ref(), &batch, Metric::Hops, PARALLEL, 1);
            for shards in [2usize, 3, 4, 7, 16, 64, batch.len(), batch.len() + 5] {
                let par = run_batch(sys.as_ref(), &batch, Metric::Hops, PARALLEL, shards);
                let name = sys.name();
                assert_eq!(par.count(), seq.count(), "{name} shards={shards}");
                assert_eq!(par.failures(), seq.failures(), "{name} shards={shards}");
                assert_eq!(par.total().to_bits(), seq.total().to_bits(), "{name} shards={shards}");
                assert_eq!(par.mean().to_bits(), seq.mean().to_bits(), "{name} shards={shards}");
                assert_eq!(par.min().to_bits(), seq.min().to_bits(), "{name} shards={shards}");
                assert_eq!(par.max().to_bits(), seq.max().to_bits(), "{name} shards={shards}");
            }
        }
    }

    fn assert_summaries_bit_identical(a: &Summary, b: &Summary, ctx: &str) {
        assert_eq!(a.count(), b.count(), "{ctx}");
        assert_eq!(a.failures(), b.failures(), "{ctx}");
        assert_eq!(a.partial(), b.partial(), "{ctx}");
        assert_eq!(a.retries(), b.retries(), "{ctx}");
        assert_eq!(a.dropped_msgs(), b.dropped_msgs(), "{ctx}");
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "{ctx}");
        assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{ctx}");
        assert_eq!(a.min().to_bits(), b.min().to_bits(), "{ctx}");
        assert_eq!(a.max().to_bits(), b.max().to_bits(), "{ctx}");
    }

    #[test]
    fn inert_faulty_batch_is_bit_identical_to_plain_batch() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 2, QueryMix::Range, 0x99);
        let plan = FaultPlan::new(0xFA57, 0.0, 0.0).unwrap();
        for sys in &bed.systems {
            for shards in [1usize, 3] {
                let run = |mode| run_batch(sys.as_ref(), &batch, Metric::Hops, mode, shards);
                let plain = run(PARALLEL);
                let faulty = run(BatchMode::Faulty(&plan));
                let ctx = format!("{} shards={shards}", sys.name());
                assert_summaries_bit_identical(&faulty, &plain, &ctx);
                assert_eq!(faulty.retries(), 0, "{ctx}");
                assert_eq!(faulty.partial(), 0, "{ctx}");
                assert_eq!(faulty.dropped_msgs(), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn faulty_batch_is_bit_identical_for_every_shard_count() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x3B);
        let plan = FaultPlan::new(0xFA58, 0.15, 0.05).unwrap();
        for sys in &bed.systems {
            let run = |shards| {
                run_batch(sys.as_ref(), &batch, Metric::Hops, BatchMode::Faulty(&plan), shards)
            };
            let seq = run(1);
            assert!(seq.dropped_msgs() > 0, "{}: 15% loss should drop some messages", sys.name());
            for shards in [2usize, 3, 7, 16] {
                let par = run(shards);
                let ctx = format!("{} shards={shards}", sys.name());
                assert_summaries_bit_identical(&par, &seq, &ctx);
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_to_plain_batch() {
        // The cached executor replays range walks from memory; the summary
        // must still be bit-identical to the plain executor, for both
        // metrics and at shard counts 1 and 3.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        for (mix, seed) in [(QueryMix::Range, 0xCA5Eu64), (QueryMix::NonRange, 0xCA5F)] {
            let batch = query_batch(&bed.workload, cfg.nodes, 15, 4, 3, mix, seed);
            for sys in &bed.systems {
                for shards in [1usize, 3] {
                    for metric in [Metric::Hops, Metric::Visited] {
                        let run = |mode| run_batch(sys.as_ref(), &batch, metric, mode, shards);
                        let plain = run(PARALLEL);
                        let mut cache = RouteCache::new();
                        let cached = run(BatchMode::Cached(QueryPlan::Parallel, &mut cache));
                        let ctx = format!("{} shards={shards} {metric:?} {mix:?}", sys.name());
                        assert_summaries_bit_identical(&cached, &plain, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_after_churn() {
        // Epoch invalidation, not cache clearing, is what keeps a persistent
        // cache honest across topology changes: reuse one cache across a
        // pre-churn and a post-churn batch and compare against plain runs.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let mut bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 12, 4, 2, QueryMix::Range, 0xC4B2);
        let mut caches: Vec<RouteCache> = bed.systems.iter().map(|_| RouteCache::new()).collect();
        for (sys, cache) in bed.systems.iter().zip(caches.iter_mut()) {
            let run = |mode| run_batch(sys.as_ref(), &batch, Metric::Visited, mode, 1);
            let plain = run(PARALLEL);
            let cached = run(BatchMode::Cached(QueryPlan::Parallel, cache));
            assert_summaries_bit_identical(&cached, &plain, &format!("{} pre-churn", sys.name()));
        }
        for sys in bed.systems.iter_mut() {
            for phys in [5usize, 41, 99] {
                let _ = sys.leave_physical(phys);
            }
            sys.stabilize();
            sys.place_all(&bed.workload.reports);
        }
        for (sys, cache) in bed.systems.iter().zip(caches.iter_mut()) {
            let run = |mode| run_batch(sys.as_ref(), &batch, Metric::Visited, mode, 1);
            let plain = run(PARALLEL);
            let cached = run(BatchMode::Cached(QueryPlan::Parallel, cache));
            assert_summaries_bit_identical(&cached, &plain, &format!("{} post-churn", sys.name()));
        }
    }

    #[test]
    fn planned_batch_is_bit_identical_across_shards_and_caching() {
        // Every plan × metric: sharding (1 vs 3) and the cached executor
        // must both be invisible in the summary bytes.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x9A1);
        for sys in &bed.systems {
            for plan in QueryPlan::ALL {
                for metric in [Metric::Hops, Metric::Visited, Metric::Matches, Metric::Lookups] {
                    let base = run_batch_planned_sharded(sys.as_ref(), &batch, metric, plan, 1);
                    let ctx = format!("{} {plan:?} {metric:?}", sys.name());
                    let sharded = run_batch_planned_sharded(sys.as_ref(), &batch, metric, plan, 3);
                    assert_summaries_bit_identical(&sharded, &base, &ctx);
                    for shards in [1usize, 3] {
                        let mut cache = RouteCache::new();
                        let cached = run_batch_planned_cached_sharded(
                            sys.as_ref(),
                            &batch,
                            metric,
                            plan,
                            shards,
                            &mut cache,
                        );
                        assert_summaries_bit_identical(
                            &cached,
                            &base,
                            &format!("{ctx} cached shards={shards}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_plan_ships_fewer_matches_on_every_system() {
        // ISSUE 10 acceptance: at arity 4 on the quick workload shape,
        // Adaptive ships <= 0.5x Parallel's transfer volume on every
        // system (owner-set equality is pinned by the cross-system
        // proptests in tests/).
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 12, values: 40, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 25, 4, 4, QueryMix::Range, 0x9A3);
        for sys in &bed.systems {
            let par = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Matches,
                QueryPlan::Parallel,
                1,
            );
            let ada = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Matches,
                QueryPlan::Adaptive,
                1,
            );
            assert!(
                ada.total() * 2.0 <= par.total(),
                "{}: adaptive should ship <= 0.5x parallel's pieces: {} vs {}",
                sys.name(),
                ada.total(),
                par.total()
            );
            // And adaptive never issues more lookups than parallel.
            let par_l = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Lookups,
                QueryPlan::Parallel,
                1,
            );
            let ada_l = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Lookups,
                QueryPlan::Adaptive,
                1,
            );
            assert!(ada_l.total() <= par_l.total(), "{}: lookup count", sys.name());
        }
    }

    #[test]
    fn query_batch_is_deterministic_and_sized() {
        let cfg =
            SimConfig { nodes: 128, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() };
        let bed = TestBed::with_systems(cfg, &[]);
        let a = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 9);
        let b = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 9);
        assert_eq!(a.len(), 15);
        assert_eq!(a, b, "same seed, same batch");
        let c = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 10);
        assert_ne!(a, c, "different seed, different batch");
    }

    #[test]
    fn summary_of_finds_each_system() {
        let rows = vec![("LORM", dht_core::Summary::new()), ("MAAN", dht_core::Summary::new())];
        assert_eq!(summary_of(&rows, analysis::System::Lorm).count(), 0);
        assert_eq!(summary_of(&rows, analysis::System::Maan).count(), 0);
    }
}
