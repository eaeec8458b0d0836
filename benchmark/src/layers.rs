//! The traced run: every cell once more with spans around the calls the
//! benchmark makes, a replay of the cell's own sub-queries through the
//! layer entry points the systems expose, bed-level probes, and the 86
//! per-layer metrics assembled from them.
//!
//! Shares are replayed (or spanned) time over the cell's *untraced*
//! time (its fastest repetition, as in the untraced run), measured in
//! this same run; what the replay does not
//! cover is reported as `trace.residual_share_*`, whatever its sign. The
//! replay runs the layers uncached, so on a workload the route or walk
//! cache serves well the attributed shares can exceed the cell's time.
//! A metric whose call does not happen on a workload (a range walk on a
//! point workload, `stabilize` on a static one) is reported as 0.

use crate::api::{
    self, Layers, NodeIdx, Query, QueryOutcome, QueryPlan, RouteCache, SubQuery, Sys, SysRef,
    System, Twins,
};
use crate::heap;
use crate::metrics::{self, Value};
use crate::oracle::Oracle;
use crate::run::{churn_rep, set_up, sim_digest, static_pass, Counts, Inputs};
use crate::stats::{best, median};
use crate::trace::{NoSpans, Spans, Tracer};
use crate::workloads::Spec;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Untraced repetitions per cell in the traced run (the fastest is the
/// denominator of every share).
const UNTRACED_REPS: usize = 2;
/// Fewest queries a replay covers (or the whole cell, if it is shorter).
const MIN_REPLAY_OPS: usize = 256;
/// Message drop probability of the fault-route probe.
const FAULT_DROP_RATE: f64 = 0.05;

/// The outcome of one workload's traced run.
pub struct Traced {
    /// Workload name.
    pub workload: &'static str,
    /// The 86 per-layer metrics, in `metrics::per_layer()` order.
    pub metrics: Vec<Value>,
    /// Hash of every cell's simulated counts (equals the untraced run's).
    pub sim_digest: String,
    /// Operations attempted in the cell passes.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    /// Per system: `(layer call, share of the cell's untraced time)`.
    pub shares: Vec<(System, Vec<(&'static str, f64)>)>,
    /// Every span recorded.
    pub tracer: Tracer,
}

/// What the passes over one cell measured.
#[derive(Default)]
struct CellTrace {
    ops: usize,
    counts: Counts,
    failed: u64,
    attempted: u64,
    /// Fastest untraced repetition, seconds.
    untraced: f64,
    /// The traced repetition, seconds.
    traced: f64,
    /// Bare `query_planned` loop, seconds (static cells).
    bare: f64,
    /// Plain executor pass, seconds (static cells).
    plain: f64,
    /// Cached executor on two shards, seconds (static cells).
    two_shards: f64,
    /// Cache counters after the traced repetition.
    cache: [u64; 4],
    sample_pieces_adaptive: u64,
    sample_pieces_parallel: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn static_cell_trace(
    who: &'static str,
    sys: SysRef<'_>,
    batch: &[(usize, Query)],
    plan: QueryPlan,
    oracle: &Oracle,
    tr: &mut Tracer,
) -> Result<CellTrace, String> {
    let mut cell = CellTrace { ops: batch.len(), ..CellTrace::default() };
    let pass = static_pass(who, sys, batch, plan, oracle, usize::MAX, tr)?;
    cell.counts = pass.counts;
    cell.bare = pass.seconds;
    cell.failed = pass.failed;
    cell.sample_pieces_adaptive = pass.sample_pieces_adaptive;
    cell.sample_pieces_parallel = pass.sample_pieces_parallel;
    let mut untraced = Vec::with_capacity(UNTRACED_REPS);
    for _ in 0..UNTRACED_REPS {
        let mut cache = RouteCache::new();
        let (failed, s) = timed(|| api::run_executor(sys, batch, plan, 1, Some(&mut cache)));
        cell.failed += failed;
        untraced.push(s);
    }
    cell.untraced = best(&untraced);
    let mut cache = RouteCache::new();
    let span = tr.enter("run_batch_cached", "sim");
    let (failed, s) = timed(|| api::run_executor(sys, batch, plan, 1, Some(&mut cache)));
    tr.exit(span, batch.len() as u64);
    cell.failed += failed;
    cell.traced = s;
    cell.cache = api::cache_counters(&cache);
    let span = tr.enter("run_batch_plain", "sim");
    let (failed, s) = timed(|| api::run_executor(sys, batch, plan, 1, None));
    tr.exit(span, batch.len() as u64);
    cell.failed += failed;
    cell.plain = s;
    let mut cache = RouteCache::new();
    let span = tr.enter("run_batch_cached_2shards", "sim");
    let (failed, s) = timed(|| api::run_executor(sys, batch, plan, 2, Some(&mut cache)));
    tr.exit(span, batch.len() as u64);
    cell.failed += failed;
    cell.two_shards = s;
    cell.attempted = (batch.len() * (UNTRACED_REPS + 4)) as u64;
    Ok(cell)
}

fn churn_cell_trace(
    proto: SysRef<'_>,
    script: &crate::workloads::ChurnScript,
    ticks: usize,
    tr: &mut Tracer,
) -> (CellTrace, f64) {
    let mut cell = CellTrace { ops: ticks, ..CellTrace::default() };
    let mut untraced = Vec::with_capacity(UNTRACED_REPS);
    let mut clones = Vec::with_capacity(UNTRACED_REPS + 1);
    for _ in 0..UNTRACED_REPS {
        let (mut sys, clone_s) = timed(|| api::clone_system(proto));
        clones.push(clone_s);
        let run = churn_rep(&mut sys, script, ticks, &mut NoSpans);
        cell.failed += run.failed_ticks;
        untraced.push(run.seconds);
    }
    cell.untraced = best(&untraced);
    let span = tr.enter("clone_box", "sim");
    let (mut sys, clone_s): (Sys, f64) = timed(|| api::clone_system(proto));
    tr.exit(span, 1);
    clones.push(clone_s);
    let run = churn_rep(&mut sys, script, ticks, tr);
    cell.failed += run.failed_ticks;
    cell.traced = run.seconds;
    cell.cache = run.cache;
    cell.counts = run.counts;
    cell.attempted = (ticks * (UNTRACED_REPS + 1)) as u64;
    (cell, median(&clones))
}

/// One executed sub-query of the replay sample, with what the real
/// system answered for it.
struct Step {
    sub: SubQuery,
    from: NodeIdx,
    keys: Range<usize>,
    /// What the real system answered: `tally.visited` nodes probed,
    /// `owners` sorted and distinct.
    real: QueryOutcome,
}

/// Seconds and call counts of one system's replay.
#[derive(Default)]
struct Replay {
    ops: usize,
    route_s: f64,
    routes: u64,
    walk_s: f64,
    walk_steps: u64,
    dir_s: f64,
    dir_probes: u64,
    plan_s: f64,
    plans: u64,
    estimate_s: f64,
    estimates: u64,
    join_s: f64,
    joins: u64,
    /// `resolve_in_order` fed the recorded answers (sequential plans).
    thread_s: f64,
}

impl Replay {
    /// Seconds of the replay spent joining answers at the requester:
    /// `plan_order` (which makes the `estimate` calls) plus
    /// `resolve_in_order` (which makes the `intersect_sorted` calls)
    /// under a sequential plan, `join_owners` under the parallel one.
    fn planner_s(&self, plan: QueryPlan) -> f64 {
        if plan == QueryPlan::Parallel {
            self.join_s
        } else {
            self.plan_s + self.thread_s
        }
    }
}

fn per(total: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total / calls as f64
    }
}

/// Replay `sample` through the layer entry points of `t`, one layer at a
/// time, and check that the replayed directory matches reproduce the
/// real answers.
fn replay<T: Layers>(
    who: &'static str,
    t: &T,
    sample: &[(usize, Query)],
    plan: QueryPlan,
    overlay: &'static str,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    tr.set_cell(who);
    let sys = t.system();
    let sequential = plan != QueryPlan::Parallel;
    // Untimed: which sub-queries the plan executes, and their real answers.
    let mut steps: Vec<Step> = Vec::new();
    let mut keys: Vec<T::Key> = Vec::new();
    let mut query_steps: Vec<Range<usize>> = Vec::with_capacity(sample.len());
    for (phys, q) in sample {
        let first = steps.len();
        let mut survivors: Option<Vec<usize>> = None;
        for idx in api::plan_order(sys, q, plan) {
            if sequential && survivors.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
            let sub = q.subs[idx];
            let out =
                api::query_planned(sys, *phys, &Query { subs: vec![sub] }, QueryPlan::Parallel)
                    .ok_or_else(|| format!("{who}: replay sub-query failed"))?;
            survivors = Some(match survivors {
                None => out.owners.clone(),
                Some(mut s) => {
                    s.retain(|o| out.owners.binary_search(o).is_ok());
                    s
                }
            });
            let k0 = keys.len();
            t.keys(&sub, &mut keys);
            steps.push(Step { sub, from: NodeIdx(*phys), keys: k0..keys.len(), real: out });
        }
        query_steps.push(first..steps.len());
    }
    let mut r = Replay { ops: sample.len(), ..Replay::default() };

    let mut roots = Vec::with_capacity(steps.len());
    let span = tr.enter("route_stats", overlay);
    let t0 = Instant::now();
    for s in &steps {
        let mut root = s.from;
        for &key in &keys[s.keys.clone()] {
            root = t
                .route(s.sub.attr, s.from, key)
                .ok_or_else(|| format!("{who}: replay route failed"))?
                .terminal;
        }
        roots.push(root);
    }
    r.route_s = t0.elapsed().as_secs_f64();
    r.routes = keys.len() as u64;
    tr.exit(span, r.routes);

    let mut nodes: Vec<NodeIdx> = Vec::new();
    let mut node_ends = Vec::with_capacity(steps.len());
    let walk_layer = if overlay == "cycloid" { "cycloid" } else { "baselines" };
    let span = tr.enter("walk", walk_layer);
    let t0 = Instant::now();
    for (s, &root) in steps.iter().zip(&roots) {
        t.walk(&s.sub, root, s.real.tally.visited, &mut nodes);
        node_ends.push(nodes.len());
    }
    r.walk_s = t0.elapsed().as_secs_f64();
    r.walk_steps = (nodes.len() - steps.len()) as u64;
    tr.exit(span, r.walk_steps);

    let mut found: Vec<usize> = Vec::new();
    let mut found_ends = Vec::with_capacity(steps.len());
    let span = tr.enter("matching_owners_into", "resource");
    let t0 = Instant::now();
    let mut lo = 0;
    for (s, &hi) in steps.iter().zip(&node_ends) {
        for &node in &nodes[lo..hi] {
            api::directory_match(t.directory(s.sub.attr, node), &s.sub, &mut found);
        }
        found_ends.push(found.len());
        lo = hi;
    }
    r.dir_s = t0.elapsed().as_secs_f64();
    r.dir_probes = nodes.len() as u64;
    tr.exit(span, r.dir_probes);

    // Untimed: the replay must have found what the real sub-queries found.
    let mut lo = 0;
    let mut per_sub: Vec<Vec<usize>> = Vec::with_capacity(steps.len());
    for (s, &hi) in steps.iter().zip(&found_ends) {
        let raw = found[lo..hi].to_vec();
        let mut got = raw.clone();
        got.sort_unstable();
        got.dedup();
        if got != s.real.owners {
            return Err(format!("{who}: replayed directory matches differ from the real answer"));
        }
        per_sub.push(raw);
        lo = hi;
    }

    if sequential {
        let span = tr.enter("plan_order", "resource");
        let t0 = Instant::now();
        for (_, q) in sample {
            std::hint::black_box(api::plan_order(sys, q, plan));
        }
        r.plan_s = t0.elapsed().as_secs_f64();
        r.plans = sample.len() as u64;
        tr.exit(span, r.plans);
        let span = tr.enter("estimate", "resource");
        let t0 = Instant::now();
        for (_, q) in sample {
            for sub in &q.subs {
                std::hint::black_box(api::estimate(sys, sub));
                r.estimates += 1;
            }
        }
        r.estimate_s = t0.elapsed().as_secs_f64();
        tr.exit(span, r.estimates);
        let mut accs: Vec<Vec<usize>> =
            query_steps.iter().map(|q| steps[q.start].real.owners.clone()).collect();
        let span = tr.enter("intersect_sorted", "resource");
        let t0 = Instant::now();
        for (acc, q) in accs.iter_mut().zip(&query_steps) {
            for s in &steps[q.start + 1..q.end] {
                api::intersect(acc, &s.real.owners);
                r.joins += 1;
            }
        }
        r.join_s = t0.elapsed().as_secs_f64();
        tr.exit(span, r.joins);
        // Candidate threading on its own: the planner's loop, handed the
        // recorded sub-query answers instead of routing for them.
        let orders: Vec<Vec<usize>> =
            sample.iter().map(|(_, q)| api::plan_order(sys, q, plan)).collect();
        let mut answers = steps.iter_mut().map(|s| std::mem::take(&mut s.real));
        let span = tr.enter("resolve_in_order", "resource");
        let t0 = Instant::now();
        for ((_, q), order) in sample.iter().zip(&orders) {
            let joined = api::resolve_in_order(q, order, &mut answers).ok_or_else(|| {
                format!("{who}: replayed plan asked for more answers than the real one")
            })?;
            std::hint::black_box(joined);
        }
        r.thread_s = t0.elapsed().as_secs_f64();
        tr.exit(span, sample.len() as u64);
    } else {
        let mut per_query: Vec<Vec<Vec<usize>>> = Vec::with_capacity(sample.len());
        let mut subs = per_sub.into_iter();
        for q in &query_steps {
            per_query.push(subs.by_ref().take(q.len()).collect());
        }
        let span = tr.enter("join_owners", "resource");
        let t0 = Instant::now();
        for sets in per_query {
            std::hint::black_box(api::join_owners(sets));
        }
        r.join_s = t0.elapsed().as_secs_f64();
        r.joins = sample.len() as u64;
        tr.exit(span, r.joins);
    }
    Ok(r)
}

/// Bed-level probes: calls that are not per query.
#[derive(Default)]
struct Probes {
    chord_build_ns_per_node: f64,
    chord_bytes_per_node: f64,
    chord_rebuild_ms: f64,
    chord_stabilize_ms: f64,
    cycloid_build_ns_per_node: f64,
    cycloid_bytes_per_node: f64,
    cycloid_rebuild_ms: f64,
    bulk_load_ms: f64,
    summary_merge_ns: f64,
    fault_route_ns: f64,
    fault_retries_per_route: f64,
    query_gen_ns: f64,
}

fn probes(spec: &Spec, workload: &api::Workload, twins: &Twins, tr: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    let n = spec.cfg.nodes;
    let seed = spec.cfg.seed;
    tr.set_cell("bed");

    let before = heap::live_bytes();
    let span = tr.enter("Chord::build", "chord");
    let (mut net, s) = timed(|| api::chord_build(n, seed));
    tr.exit(span, 1);
    p.chord_build_ns_per_node = s * 1e9 / n as f64;
    p.chord_bytes_per_node = heap::live_bytes().saturating_sub(before) as f64 / n as f64;
    let span = tr.enter("rebuild_all_state", "chord");
    p.chord_rebuild_ms = timed(|| api::chord_rebuild_all_state(&mut net)).1 * 1e3;
    tr.exit(span, 1);
    let span = tr.enter("stabilize_all", "chord");
    p.chord_stabilize_ms = timed(|| api::chord_stabilize_all(&mut net)).1 * 1e3;
    tr.exit(span, 1);
    drop(net);

    let before = heap::live_bytes();
    let span = tr.enter("Cycloid::build", "cycloid");
    let (mut net, s) = timed(|| api::cycloid_build(n, spec.cfg.dimension, seed));
    tr.exit(span, 1);
    p.cycloid_build_ns_per_node = s * 1e9 / n as f64;
    p.cycloid_bytes_per_node = heap::live_bytes().saturating_sub(before) as f64 / n as f64;
    let span = tr.enter("rebuild_all_links", "cycloid");
    p.cycloid_rebuild_ms = timed(|| api::cycloid_rebuild_all_links(&mut net)).1 * 1e3;
    tr.exit(span, 1);
    drop(net);

    let batch = workload.reports.clone();
    let span = tr.enter("bulk_load", "resource");
    p.bulk_load_ms = timed(|| api::directory_bulk_load(batch)).1 * 1e3;
    tr.exit(span, 1);

    const QUERIES: usize = 4096;
    let span = tr.enter("random_query", "resource");
    let (batch, s) =
        timed(|| api::generate_queries(workload, n, QUERIES, spec.arity, spec.mix, seed ^ 0x9E4));
    tr.exit(span, QUERIES as u64);
    p.query_gen_ns = s * 1e9 / QUERIES as f64;

    const PARTS: usize = 1024;
    const ROUNDS: usize = 16;
    let values: Vec<f64> = (0..64).map(f64::from).collect();
    let parts: Vec<_> = (0..PARTS).map(|_| api::summary_of(&values)).collect();
    let span = tr.enter("Summary::merge", "dht-core");
    let ((), s) = timed(|| {
        for _ in 0..ROUNDS {
            std::hint::black_box(api::summary_merge(std::hint::black_box(&parts)));
        }
    });
    tr.exit(span, (PARTS * ROUNDS) as u64);
    p.summary_merge_ns = s * 1e9 / (PARTS * ROUNDS) as f64;

    let plan = api::fault_plan(seed, FAULT_DROP_RATE);
    let mut keys = Vec::new();
    let lookups: Vec<(NodeIdx, u64)> = batch
        .iter()
        .flat_map(|(phys, q)| q.subs.iter().map(move |sub| (NodeIdx(*phys), *sub)))
        .map(|(from, sub)| {
            keys.clear();
            twins.sword.keys(&sub, &mut keys);
            (from, keys[0])
        })
        .collect();
    let mut retries = 0;
    let span = tr.enter("route_stats_faulty", "dht-core");
    let ((), s) = timed(|| {
        for (i, &(from, key)) in lookups.iter().enumerate() {
            retries += api::fault_route(&twins.sword, from, key, &plan, i as u64).unwrap_or(0);
        }
    });
    tr.exit(span, lookups.len() as u64);
    p.fault_route_ns = s * 1e9 / lookups.len() as f64;
    p.fault_retries_per_route = retries as f64 / lookups.len() as f64;
    p
}

/// Run one workload traced and assemble its per-layer metrics.
pub fn per_layer(spec: &Spec) -> Result<Traced, String> {
    heap::reset_peak();
    let mut tr = Tracer::new();
    let (bed, setup) = set_up(spec);
    let inputs = Inputs::generate(spec, &bed.workload);
    let oracle = inputs.oracle(spec, &bed.workload);

    let mut cells = Vec::with_capacity(4);
    let mut clone_ms = 0.0;
    for (i, system) in api::SYSTEMS.into_iter().enumerate() {
        let who = api::system_name(system);
        tr.set_cell(who);
        let sys = bed.systems[i].as_ref();
        cells.push(match &inputs {
            Inputs::Static(batch) => {
                let span = tr.enter("clone_box", "sim");
                let (clone, s) = timed(|| api::clone_system(sys));
                tr.exit(span, 1);
                drop(clone);
                clone_ms += s * 1e3;
                static_cell_trace(who, sys, &batch[..spec.ops[i]], spec.plan, &oracle, &mut tr)?
            }
            Inputs::Churn(script) => {
                let (cell, clone_s) = churn_cell_trace(sys, script, spec.ops[i], &mut tr);
                clone_ms += clone_s * 1e3;
                cell
            }
        });
    }
    drop(bed.systems);

    let twins = Twins::build(&bed.workload, &spec.cfg);
    let churn_sample: Vec<(usize, Query)>;
    let sample: &[(usize, Query)] = match &inputs {
        Inputs::Static(batch) => batch,
        Inputs::Churn(script) => {
            churn_sample = script
                .queries
                .iter()
                .map(|(draw, q)| ((draw % spec.cfg.nodes as u64) as usize, q.clone()))
                .collect();
            &churn_sample
        }
    };
    let sample_of = |i: usize| &sample[..(spec.ops[i] / 4).max(MIN_REPLAY_OPS).min(spec.ops[i])];
    let plan = spec.plan;
    let who = api::SYSTEMS.map(api::system_name);
    let lorm = replay(who[0], &twins.lorm, sample_of(0), plan, "cycloid", &mut tr)?;
    let mercury = replay(who[1], &twins.mercury, sample_of(1), plan, "chord", &mut tr)?;
    let sword = replay(who[2], &twins.sword, sample_of(2), plan, "chord", &mut tr)?;
    let maan = replay(who[3], &twins.maan, sample_of(3), plan, "chord", &mut tr)?;
    let replays = [&lorm, &mercury, &sword, &maan];
    let probe = probes(spec, &bed.workload, &twins, &mut tr);

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    set("sim.workload_gen_ms", setup.workload_gen * 1e3);
    for (name, s) in ["lorm", "mercury", "sword", "maan"].iter().zip(setup.build) {
        set(&format!("sim.build_{name}_ms"), s * 1e3);
    }
    set("sim.bed_clone_ms", clone_ms);
    let sum = |f: fn(&CellTrace) -> f64| cells.iter().map(f).sum::<f64>();
    let (untraced, traced) = (sum(|c| c.untraced), sum(|c| c.traced));
    if !spec.churn {
        set("sim.executor_overhead_share", (untraced - sum(|c| c.bare)) / untraced);
        set("sim.shards2_speedup", untraced / sum(|c| c.two_shards));
        set("dht-core.cache_speedup", sum(|c| c.plain) / untraced);
    }
    let mut shares = Vec::with_capacity(4);
    for (i, (cell, r)) in cells.iter().zip(replays).enumerate() {
        let who = who[i];
        let prefix = metrics::SYSTEM_PREFIX[i];
        let ops = cell.ops as f64;
        set(&format!("{prefix}hops_per_op"), cell.counts.hops as f64 / ops);
        set(&format!("{prefix}lookups_per_op"), cell.counts.lookups as f64 / ops);
        set(&format!("{prefix}visited_per_op"), cell.counts.visited as f64 / ops);
        set(&format!("{prefix}pieces_per_op"), cell.counts.pieces as f64 / ops);
        let scale = ops / r.ops as f64 / cell.untraced;
        let mut attributed = vec![
            ("route_stats", r.route_s * scale),
            ("walk", r.walk_s * scale),
            ("matching_owners_into", r.dir_s * scale),
            ("planner", r.planner_s(plan) * scale),
        ];
        if spec.churn {
            let spanned = |name: &str| tr.total(who, name);
            let mean_us = |(s, calls): (f64, u64)| per(s, calls) * 1e6;
            let median_ms = |name: &str| {
                let d = tr.durations(who, name);
                if d.is_empty() {
                    0.0
                } else {
                    median(&d) * 1e3
                }
            };
            set(&format!("{prefix}direct_us_per_op"), mean_us(spanned("query_from_cached")));
            set(&format!("{prefix}place_all_ms"), median_ms("place_all"));
            set(&format!("{prefix}stabilize_ms"), median_ms("stabilize"));
            set(&format!("{prefix}join_us"), mean_us(spanned("join_physical")));
            set(&format!("{prefix}leave_us"), mean_us(spanned("leave_physical")));
            set(&format!("{prefix}register_us"), mean_us(spanned("register")));
            // The cell's own calls, spanned in the traced repetition.
            attributed = [
                "query_from_cached",
                "register",
                "join_physical",
                "leave_physical",
                "fail_physical",
                "stabilize",
                "place_all",
            ]
            .map(|name| (name, spanned(name).0 / cell.untraced))
            .to_vec();
        } else {
            set(&format!("{prefix}direct_us_per_op"), cell.bare / ops * 1e6);
        }
        let residual = 1.0 - attributed.iter().map(|(_, s)| s).sum::<f64>();
        set(&format!("trace.residual_share_{}", who.to_lowercase()), residual);
        shares.push((api::SYSTEMS[i], attributed));
    }
    set("trace.overhead_share", traced / untraced - 1.0);

    let walks = [&mercury, &maan];
    let walk_steps: u64 = walks.iter().map(|r| r.walk_steps).sum();
    set(
        "baselines.walk_ns_per_step",
        per(walks.iter().map(|r| r.walk_s).sum::<f64>(), walk_steps) * 1e9,
    );
    set(
        "baselines.walk_steps_per_op",
        walk_steps as f64 / walks.iter().map(|r| r.ops).sum::<usize>() as f64,
    );
    let route_share = |cell: &CellTrace, r: &Replay| {
        cell.counts.lookups as f64 * per(r.route_s, r.routes) / cell.untraced
    };
    set("chord.route_ns", per(sword.route_s, sword.routes) * 1e9);
    set("chord.hops_per_route", cells[2].counts.hops as f64 / cells[2].counts.lookups as f64);
    set("chord.route_share", route_share(&cells[2], &sword));
    set("chord.build_ns_per_node", probe.chord_build_ns_per_node);
    set("chord.bytes_per_node", probe.chord_bytes_per_node);
    set("chord.rebuild_all_state_ms", probe.chord_rebuild_ms);
    set("chord.stabilize_all_ms", probe.chord_stabilize_ms);
    set("cycloid.route_ns", per(lorm.route_s, lorm.routes) * 1e9);
    set("cycloid.hops_per_route", cells[0].counts.hops as f64 / cells[0].counts.lookups as f64);
    set("cycloid.route_share", route_share(&cells[0], &lorm));
    set("cycloid.cluster_walk_ns_per_step", per(lorm.walk_s, lorm.walk_steps) * 1e9);
    set("cycloid.build_ns_per_node", probe.cycloid_build_ns_per_node);
    set("cycloid.bytes_per_node", probe.cycloid_bytes_per_node);
    set("cycloid.rebuild_all_links_ms", probe.cycloid_rebuild_ms);
    set("resource.directory_match_ns", per(maan.dir_s, maan.dir_probes) * 1e9);
    set("resource.directory_probes_per_op", maan.dir_probes as f64 / maan.ops as f64);
    set(
        "resource.directory_share",
        maan.dir_s / maan.ops as f64 * cells[3].ops as f64 / cells[3].untraced,
    );
    set("resource.bulk_load_ms", probe.bulk_load_ms);
    set("resource.intersect_ns", per(mercury.join_s, mercury.joins) * 1e9);
    set("resource.plan_order_ns", per(mercury.plan_s, mercury.plans) * 1e9);
    set("resource.estimate_ns", per(mercury.estimate_s, mercury.estimates) * 1e9);
    set(
        "resource.planner_share",
        mercury.planner_s(plan) / mercury.ops as f64 * cells[1].ops as f64 / cells[1].untraced,
    );
    let total = |f: fn(&CellTrace) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    set("resource.pieces_useful_ratio", total(|c| c.counts.owners) / total(|c| c.counts.pieces));
    if !spec.churn {
        set(
            "resource.adaptive_pieces_ratio",
            total(|c| c.sample_pieces_adaptive) / total(|c| c.sample_pieces_parallel),
        );
    }
    set("resource.query_gen_ns", probe.query_gen_ns);
    let rate =
        |hits: f64, misses: f64| if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) };
    set("dht-core.cache_route_hit_rate", rate(total(|c| c.cache[0]), total(|c| c.cache[1])));
    set("dht-core.cache_walk_hit_rate", rate(total(|c| c.cache[2]), total(|c| c.cache[3])));
    set("dht-core.summary_merge_ns", probe.summary_merge_ns);
    set("dht-core.fault_route_ns", probe.fault_route_ns);
    set("dht-core.fault_retries_per_route", probe.fault_retries_per_route);

    let listed = metrics::per_layer();
    // A metric left unset does not happen on this workload and reads 0; a
    // name set but not listed is a typo here.
    assert!(m.keys().all(|k| listed.iter().any(|(name, _, _)| name == k)), "unlisted metric set");
    let values = listed
        .into_iter()
        .map(|(name, unit, kind)| {
            let value = m.get(&name).copied().unwrap_or(0.0);
            Value { name, value, unit, kind: Some(kind), samples: vec![], noise: 0.0 }
        })
        .collect();
    let counts: Vec<Counts> = cells.iter().map(|c| c.counts).collect();
    Ok(Traced {
        workload: spec.name,
        metrics: values,
        sim_digest: sim_digest(&counts),
        attempted: cells.iter().map(|c| c.attempted).sum(),
        failed: cells.iter().map(|c| c.failed).sum(),
        shares,
        tracer: tr,
    })
}
