//! The untraced run: set-up, the timing rule, the oracle pass, and the
//! eight end-to-end metrics of one workload.
//!
//! A *cell* is one (workload, system) pair with a fixed operation count.
//! Per cell: one untimed pass that sums the simulated counts and checks
//! answers, and one untimed warm-up over a tenth of the batch. Then timed
//! repetitions, each with a fresh `RouteCache` (and, on `churn_mix`, a
//! fresh deep clone of the bed), round-robin over the four cells until
//! `--seconds` are spent. The reported time of a cell is its fastest
//! repetition: on the shared host this was written on, co-tenants slow the
//! memory system for seconds at a time and nothing ever makes a repetition
//! faster than the undisturbed machine, so best-of-n repeats across runs
//! where the median does not (README.md has the measured spreads). The
//! median, slowest repetition and sample count are printed beside it.

use crate::api::{
    self, Batch, ChurnKind, ChurnOp, Query, QueryPlan, RouteCache, Sys, SysRef, System,
};
use crate::heap;
use crate::metrics::{Value, END_TO_END};
use crate::oracle::Oracle;
use crate::stats::{best, floor_gap, median, spread};
use crate::trace::{NoSpans, Spans};
use crate::workloads::{self, ChurnScript, Spec, MAINTENANCE_TICKS, REGISTERS_PER_TICK};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Five, because the first
/// one or two in a fresh process run up to 40% slower (the allocator has
/// not yet raised its mmap threshold, so every arena is page-faulted in)
/// and a median of three would sometimes report that.
pub const SETUPS: usize = 5;
/// Fewest timed repetitions of a cell, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Every `ORACLE_STRIDE`-th query of a static batch is checked against
/// the oracle, under both plans and sub-query by sub-query.
pub const ORACLE_STRIDE: usize = 64;

/// Host seconds of one set-up, piece by piece.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Workload::generate`.
    pub workload_gen: f64,
    /// `build_system`, per system.
    pub build: [f64; 4],
    /// `clone_box` of all four systems (`churn_mix` only, else 0).
    pub clone: f64,
}

impl SetupTimes {
    /// What `setup_s` reports.
    pub fn total(&self) -> f64 {
        self.workload_gen + self.build.iter().sum::<f64>() + self.clone
    }
}

/// A mounted bed: the workload and the four systems in `System::ALL` order.
pub struct Bed {
    /// Attribute space and reports.
    pub workload: api::Workload,
    /// LORM, Mercury, SWORD, MAAN.
    pub systems: Vec<Sys>,
}

/// Build the bed of `spec`, timing each piece.
pub fn set_up(spec: &Spec) -> (Bed, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let workload = api::generate_workload(&spec.cfg);
    times.workload_gen = t.elapsed().as_secs_f64();
    let mut systems = Vec::with_capacity(4);
    for (i, system) in api::SYSTEMS.into_iter().enumerate() {
        let t = Instant::now();
        systems.push(api::build(system, &workload, &spec.cfg));
        times.build[i] = t.elapsed().as_secs_f64();
    }
    if spec.churn {
        let t = Instant::now();
        let clones: Vec<Sys> = systems.iter().map(|s| api::clone_system(s.as_ref())).collect();
        times.clone = t.elapsed().as_secs_f64();
        drop(clones);
    }
    (Bed { workload, systems }, times)
}

/// Simulated counts of one cell repetition, summed over its operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Logical routing hops.
    pub hops: u64,
    /// DHT lookups.
    pub lookups: u64,
    /// Directory nodes visited.
    pub visited: u64,
    /// Pieces shipped to the requester.
    pub pieces: u64,
    /// Owners returned.
    pub owners: u64,
}

impl Counts {
    fn add(&mut self, tally: &api::LookupTally, owners: usize) {
        self.hops += tally.hops as u64;
        self.lookups += tally.lookups as u64;
        self.visited += tally.visited as u64;
        self.pieces += tally.matches as u64;
        self.owners += owners as u64;
    }

    fn words(&self) -> [u64; 5] {
        [self.hops, self.lookups, self.visited, self.pieces, self.owners]
    }
}

/// FNV-1a over every system's counts: equal digests mean the simulation
/// did exactly the same work.
pub fn sim_digest(cells: &[Counts]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for word in cells.iter().flat_map(Counts::words) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What the oracle pass over one static cell found.
#[derive(Debug, Clone, Default)]
pub struct StaticPass {
    /// Summed over the whole batch under the workload's plan.
    pub counts: Counts,
    /// Queries that returned `Err`.
    pub failed: u64,
    /// Host seconds of the bare `query_planned` loop.
    pub seconds: f64,
    /// Pieces shipped by the sampled queries under `Adaptive`.
    pub sample_pieces_adaptive: u64,
    /// Pieces shipped by the same queries under `Parallel`.
    pub sample_pieces_parallel: u64,
}

/// Does `sys` answer `q` from `phys` exactly as the oracle does: under
/// both plans, and each sub-query on its own? Adds the pieces both plans
/// shipped to `pass`.
fn check_query(
    who: &str,
    sys: SysRef<'_>,
    oracle: &Oracle,
    prefix: usize,
    phys: usize,
    q: &Query,
    pass: &mut StaticPass,
) -> Result<(), String> {
    for plan in [QueryPlan::Parallel, QueryPlan::Adaptive] {
        let out = api::query_planned(sys, phys, q, plan)
            .ok_or_else(|| format!("{who}: query failed under {plan:?}"))?;
        if !oracle.check(q, prefix, &out.owners) {
            return Err(format!(
                "{who}: wrong owner set under {plan:?} for {q:?}: got {:?}, oracle {:?}",
                out.owners,
                oracle.owners(q, prefix)
            ));
        }
        match plan {
            QueryPlan::Adaptive => pass.sample_pieces_adaptive += out.tally.matches as u64,
            _ => pass.sample_pieces_parallel += out.tally.matches as u64,
        }
    }
    for sub in &q.subs {
        let single = Query { subs: vec![*sub] };
        let out = api::query_planned(sys, phys, &single, QueryPlan::Parallel)
            .ok_or_else(|| format!("{who}: sub-query failed"))?;
        if !oracle.check(&single, prefix, &out.owners) {
            return Err(format!("{who}: wrong owner set for sub-query {sub:?}"));
        }
    }
    Ok(())
}

/// The bare `query_planned` loop over a static cell's batch, timed by
/// `spans`, then (untimed) the oracle check of every 64th query.
pub fn static_pass<S: Spans>(
    who: &str,
    sys: SysRef<'_>,
    batch: &[(usize, Query)],
    plan: QueryPlan,
    oracle: &Oracle,
    prefix: usize,
    spans: &mut S,
) -> Result<StaticPass, String> {
    let mut pass = StaticPass::default();
    let mut sampled: Vec<Vec<usize>> = Vec::with_capacity(batch.len() / ORACLE_STRIDE + 1);
    let span = spans.enter("query_planned", "resource");
    let t = Instant::now();
    for (i, (phys, q)) in batch.iter().enumerate() {
        match api::query_planned(sys, *phys, q, plan) {
            Some(out) => {
                pass.counts.add(&out.tally, out.owners.len());
                if i % ORACLE_STRIDE == 0 {
                    sampled.push(out.owners);
                }
            }
            None => {
                pass.failed += 1;
                if i % ORACLE_STRIDE == 0 {
                    sampled.push(Vec::new());
                }
            }
        }
    }
    pass.seconds = t.elapsed().as_secs_f64();
    spans.exit(span, batch.len() as u64);
    for ((phys, q), owners) in batch.iter().step_by(ORACLE_STRIDE).zip(&sampled) {
        if !oracle.check(q, prefix, owners) {
            return Err(format!("{who}: wrong owner set under {plan:?} for {q:?}"));
        }
        check_query(who, sys, oracle, prefix, *phys, q, &mut pass)?;
    }
    Ok(pass)
}

/// One repetition of a `churn_mix` cell.
#[derive(Debug, Clone, Default)]
pub struct ChurnRun {
    /// Queries and registers together.
    pub counts: Counts,
    /// Ticks whose query or any of whose registers returned `Err`.
    pub failed_ticks: u64,
    /// Pieces each tick's query shipped (`u32::MAX` when it failed).
    pub matches: Vec<u32>,
    /// Joins and departures the system refused (a full Cycloid refuses
    /// joins until a node leaves); not operations, reported beside them.
    pub refused_events: u64,
    /// `[route hits, route misses, walk hits, walk misses]` of the run's cache.
    pub cache: [u64; 4],
    /// Host seconds of the tick loop.
    pub seconds: f64,
}

/// Reduce a random draw to a live physical node: the draw modulo the ids
/// handed out so far, then the next live id upwards.
fn live_from(sys: SysRef<'_>, draw: u64, max_phys: usize) -> usize {
    let mut p = (draw % max_phys as u64) as usize;
    while !api::is_live(sys, p) {
        p = (p + 1) % max_phys;
    }
    p
}

/// Drive `sys` through the first `ticks` ticks of `script`. Per tick:
/// the membership events that are due, a maintenance round every 50
/// simulated seconds, one cached query from a live origin, ten routed
/// registers from live owners.
pub fn churn_rep<S: Spans>(
    sys: &mut Sys,
    script: &ChurnScript,
    ticks: usize,
    spans: &mut S,
) -> ChurnRun {
    let mut run = ChurnRun { matches: Vec::with_capacity(ticks), ..ChurnRun::default() };
    let mut cache = RouteCache::new();
    let mut join_rng = SmallRng::seed_from_u64(script.join_seed);
    let mut max_phys = script.nodes;
    let mut events = script.events.iter().peekable();
    let t = Instant::now();
    for tick in 0..ticks {
        while let Some(e) = events.next_if(|e| e.tick <= tick) {
            let (name, op) = match e.kind {
                ChurnKind::Join => ("join_physical", ChurnOp::Join(&mut join_rng)),
                ChurnKind::Leave => {
                    ("leave_physical", ChurnOp::Leave(live_from(sys.as_ref(), e.pick, max_phys)))
                }
                ChurnKind::Fail => {
                    ("fail_physical", ChurnOp::Fail(live_from(sys.as_ref(), e.pick, max_phys)))
                }
            };
            let span = spans.enter(name, "resource");
            let done = api::churn_op(sys, op).is_some();
            spans.exit(span, 1);
            match (done, e.kind) {
                (true, ChurnKind::Join) => max_phys += 1,
                (true, _) => {}
                (false, _) => run.refused_events += 1,
            }
        }
        if tick > 0 && tick % MAINTENANCE_TICKS == 0 {
            let span = spans.enter("stabilize", "resource");
            api::churn_op(sys, ChurnOp::Stabilize);
            spans.exit(span, 1);
            let span = spans.enter("place_all", "resource");
            api::churn_op(sys, ChurnOp::PlaceAll(&script.reports[..script.prefix_at(tick)]));
            spans.exit(span, 1);
        }
        let mut failed = false;
        let (draw, q) = &script.queries[tick];
        let origin = live_from(sys.as_ref(), *draw, max_phys);
        let span = spans.enter("query_from_cached", "resource");
        let answer = api::query_cached(sys.as_ref(), origin, q, &mut cache);
        spans.exit(span, 1);
        match answer {
            Some(out) => {
                run.counts.add(&out.tally, out.owners.len());
                run.matches.push(out.tally.matches as u32);
            }
            None => {
                failed = true;
                run.matches.push(u32::MAX);
            }
        }
        let first = script.prefix_at(tick);
        for info in &script.reports[first..first + REGISTERS_PER_TICK] {
            let owner = live_from(sys.as_ref(), info.owner as u64, max_phys);
            let span = spans.enter("register", "resource");
            let tally = api::churn_op(sys, ChurnOp::Register(api::ResourceInfo { owner, ..*info }));
            spans.exit(span, 1);
            match tally {
                Some(tally) => run.counts.add(&tally, 0),
                None => failed = true,
            }
        }
        run.failed_ticks += u64::from(failed);
    }
    run.seconds = t.elapsed().as_secs_f64();
    run.cache = api::cache_counters(&cache);
    run
}

/// Ticks of a churn repetition whose query shipped fewer pieces than the
/// ground truth at that tick holds (the answer was incomplete).
pub fn churn_shortfalls(run: &ChurnRun, script: &ChurnScript, oracle: &Oracle) -> u64 {
    run.matches
        .iter()
        .enumerate()
        .filter(|&(tick, &got)| {
            got != u32::MAX
                && (got as usize) < oracle.pieces(&script.queries[tick].1, script.prefix_at(tick))
        })
        .count() as u64
}

/// The inputs of one workload, generated from the seed before timing.
pub enum Inputs {
    /// Static workloads: one query batch.
    Static(Batch),
    /// `churn_mix`: the churn script.
    Churn(ChurnScript),
}

impl Inputs {
    /// Generate the inputs of `spec` over `workload`.
    pub fn generate(spec: &Spec, workload: &api::Workload) -> Self {
        if spec.churn {
            Inputs::Churn(ChurnScript::generate(spec, workload))
        } else {
            Inputs::Static(workloads::query_batch(spec, workload))
        }
    }

    /// The oracle over every report the workload will ever hold.
    pub fn oracle(&self, spec: &Spec, workload: &api::Workload) -> Oracle {
        match self {
            Inputs::Static(_) => Oracle::new(spec.cfg.attrs, &workload.reports),
            Inputs::Churn(script) => Oracle::new(spec.cfg.attrs, &script.reports),
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Which system.
    pub system: System,
    /// Operations per repetition.
    pub ops: usize,
    /// Host seconds of each timed repetition.
    pub reps: Vec<f64>,
    /// Simulated counts of one repetition (all repetitions agree).
    pub counts: Counts,
    /// Operations that returned `Err`, over the untimed pass and all reps.
    pub failed: u64,
    /// Operations of one repetition whose answer was incomplete (all
    /// repetitions agree; 0 on static workloads).
    pub incomplete: u64,
}

impl Cell {
    /// Passes over the batch: the untimed first one and the repetitions.
    fn passes(&self) -> u64 {
        self.reps.len() as u64 + 1
    }

    /// Operations attempted over all passes.
    pub fn attempted(&self) -> u64 {
        self.ops as u64 * self.passes()
    }
}

/// The outcome of one workload's untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Workload name.
    pub workload: &'static str,
    /// The eight end-to-end metrics, in `END_TO_END` order.
    pub metrics: Vec<Value>,
    /// The four cells, in `System::ALL` order.
    pub cells: Vec<Cell>,
    /// Hash of every cell's simulated counts.
    pub sim_digest: String,
}

impl EndToEnd {
    /// Operations attempted over all cells.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(Cell::attempted).sum()
    }

    /// Operations that returned `Err` over all cells.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }
}

/// The untimed first pass of a static cell: counts, oracle check, and a
/// warm-up of the cached executor over a tenth of the batch.
fn prepare_static(
    sys: SysRef<'_>,
    system: System,
    batch: &[(usize, Query)],
    plan: QueryPlan,
    oracle: &Oracle,
) -> Result<Cell, String> {
    let who = api::system_name(system);
    let pass = static_pass(who, sys, batch, plan, oracle, usize::MAX, &mut NoSpans)?;
    api::run_executor(sys, &batch[..batch.len() / 10], plan, 1, Some(&mut RouteCache::new()));
    Ok(Cell {
        system,
        ops: batch.len(),
        reps: Vec::new(),
        counts: pass.counts,
        failed: pass.failed,
        incomplete: 0,
    })
}

/// The untimed first pass of a churn cell: a warm-up over a tenth of the
/// ticks, then one full repetition whose answers are checked for
/// completeness against the oracle.
fn prepare_churn(
    proto: SysRef<'_>,
    system: System,
    script: &ChurnScript,
    ticks: usize,
    oracle: &Oracle,
) -> Cell {
    churn_rep(&mut api::clone_system(proto), script, ticks / 10, &mut NoSpans);
    let run = churn_rep(&mut api::clone_system(proto), script, ticks, &mut NoSpans);
    Cell {
        system,
        ops: ticks,
        reps: Vec::new(),
        counts: run.counts,
        failed: run.failed_ticks,
        incomplete: churn_shortfalls(&run, script, oracle),
    }
}

/// One timed repetition of `cell`, appended to its samples.
fn timed_rep(
    cell: &mut Cell,
    sys: SysRef<'_>,
    inputs: &Inputs,
    plan: QueryPlan,
) -> Result<(), String> {
    match inputs {
        Inputs::Static(batch) => {
            let mut cache = RouteCache::new();
            let t = Instant::now();
            cell.failed += api::run_executor(sys, &batch[..cell.ops], plan, 1, Some(&mut cache));
            cell.reps.push(t.elapsed().as_secs_f64());
        }
        Inputs::Churn(script) => {
            let run = churn_rep(&mut api::clone_system(sys), script, cell.ops, &mut NoSpans);
            if run.counts != cell.counts {
                return Err(format!(
                    "{}: churn repetitions disagree on simulated counts",
                    api::system_name(cell.system)
                ));
            }
            cell.failed += run.failed_ticks;
            cell.reps.push(run.seconds);
        }
    }
    Ok(())
}

/// Run one workload untraced and assemble its end-to-end metrics.
pub fn end_to_end(spec: &Spec, seconds: f64) -> Result<EndToEnd, String> {
    heap::reset_peak();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bed = None;
    for _ in 0..SETUPS {
        drop(bed.take()); // one bed alive at a time, as in a single set-up
        let (b, times) = set_up(spec);
        setups.push(times.total());
        bed = Some(b);
    }
    let bed = bed.expect("SETUPS is positive");
    let inputs = Inputs::generate(spec, &bed.workload);
    let oracle = inputs.oracle(spec, &bed.workload);
    let mut cells = Vec::with_capacity(4);
    for (i, system) in api::SYSTEMS.into_iter().enumerate() {
        let sys = bed.systems[i].as_ref();
        cells.push(match &inputs {
            Inputs::Static(batch) => {
                prepare_static(sys, system, &batch[..spec.ops[i]], spec.plan, &oracle)?
            }
            Inputs::Churn(script) => prepare_churn(sys, system, script, spec.ops[i], &oracle),
        });
    }
    // Round-robin over the four cells, so a slow phase of the host falls
    // on every cell alike instead of on whichever cell was running.
    let start = Instant::now();
    while cells[0].reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        for (cell, sys) in cells.iter_mut().zip(&bed.systems) {
            timed_rep(cell, sys.as_ref(), &inputs, spec.plan)?;
        }
    }
    let metric = |i: usize, value: f64, samples: Vec<f64>, noise: f64| {
        let (name, unit) = END_TO_END[i];
        Value { name: name.to_owned(), value, unit, kind: None, samples, noise }
    };
    let wall: f64 = cells.iter().map(|c| best(&c.reps)).sum();
    let second_bests: f64 = cells.iter().map(|c| best(&c.reps) * (1.0 + floor_gap(&c.reps))).sum();
    let attempted: u64 = cells.iter().map(Cell::attempted).sum();
    let unanswered: u64 = cells.iter().map(|c| c.failed + c.incomplete * c.passes()).sum();
    let mut metrics = vec![
        metric(0, median(&setups), setups.clone(), spread(&setups)),
        metric(1, wall, vec![], second_bests / wall - 1.0),
    ];
    for (i, c) in cells.iter().enumerate() {
        let per_rep = c.reps.iter().map(|r| c.ops as f64 / r).collect();
        metrics.push(metric(2 + i, c.ops as f64 / best(&c.reps), per_rep, floor_gap(&c.reps)));
    }
    metrics.push(metric(6, 1.0 - unanswered as f64 / attempted as f64, vec![], 0.0));
    metrics.push(metric(7, heap::peak_bytes() as f64 / 1e6, vec![], 0.0));
    let digest = sim_digest(&cells.iter().map(|c| c.counts).collect::<Vec<_>>());
    Ok(EndToEnd { workload: spec.name, metrics, cells, sim_digest: digest })
}
