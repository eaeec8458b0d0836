//! The five workloads: bed configuration, query shape, operation counts,
//! and the inputs generated from `--seed` before any timed region.

use crate::api::{
    self, Batch, ChurnKind, Query, QueryMix, QueryPlan, ResourceInfo, SimConfig, Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] =
    ["point_lookup", "range_scan", "adaptive_join", "churn_mix", "scale_50k"];

/// Simulated seconds per tick of `churn_mix` (ten requests a second, as
/// in the paper's §V.C set-up).
const TICK_SECONDS: f64 = 0.1;
/// Ticks between `stabilize` + `place_all` rounds (every 50 simulated s).
pub const MAINTENANCE_TICKS: usize = 500;
/// Routed `register` calls per tick.
pub const REGISTERS_PER_TICK: usize = 10;
/// Poisson join rate and departure rate, events per simulated second.
const CHURN_RATE: f64 = 0.4;
/// Share of departures that hand their directory off; the rest fail.
const GRACEFUL_RATIO: f64 = 0.5;

/// One workload, fully specified.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Bed configuration; `cfg.seed` is the run's `--seed`.
    pub cfg: SimConfig,
    /// Attributes per query.
    pub arity: usize,
    /// Point or range constraints.
    pub mix: QueryMix,
    /// Plan the cells resolve queries under.
    pub plan: QueryPlan,
    /// Operations per repetition for LORM, Mercury, SWORD, MAAN. Fixed
    /// counts, never time-based, so simulated counts repeat exactly.
    pub ops: [usize; 4],
    /// `churn_mix`: an operation is a tick of the churn script.
    pub churn: bool,
}

/// The specification of workload `name`, or `None` for an unknown name.
/// `tiny` swaps in a 128-node bed and a few hundred operations per cell.
pub fn spec(name: &str, seed: u64, tiny: bool) -> Option<Spec> {
    use QueryMix::{NonRange, Range};
    use QueryPlan::{Adaptive, Parallel};
    let paper = SimConfig { seed, ..SimConfig::default() };
    let big = SimConfig { nodes: 50_000, attrs: 8, values: 5000, dimension: 13, ..paper };
    // Counts sized so one repetition takes 0.4-0.8 s on the reference
    // machine (measured times are in README.md).
    let (name, cfg, arity, mix, plan, ops) = match name {
        "point_lookup" => {
            ("point_lookup", paper, 3, NonRange, Parallel, [200_000, 100_000, 200_000, 200_000])
        }
        "range_scan" => ("range_scan", paper, 3, Range, Parallel, [40_000, 8_000, 30_000, 8_000]),
        "adaptive_join" => {
            ("adaptive_join", paper, 4, Range, Adaptive, [40_000, 1_500, 30_000, 1_500])
        }
        "churn_mix" => ("churn_mix", paper, 5, NonRange, Parallel, [8_000, 800, 12_000, 6_500]),
        "scale_50k" => {
            ("scale_50k", big, 2, NonRange, Parallel, [80_000, 100_000, 60_000, 150_000])
        }
        _ => return None,
    };
    let churn = name == "churn_mix";
    if tiny {
        let cfg = SimConfig { nodes: 128, attrs: 10, values: 40, dimension: 5, ..paper };
        // One maintenance round must fall inside the tiny churn script.
        let ops = [if churn { MAINTENANCE_TICKS + 140 } else { 640 }; 4];
        return Some(Spec { name, cfg, arity, mix, plan, ops, churn });
    }
    Some(Spec { name, cfg, arity, mix, plan, ops, churn })
}

fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query batch of a static workload: the longest cell's count; each
/// system runs a prefix.
pub fn query_batch(spec: &Spec, workload: &Workload) -> Batch {
    let count = spec.ops.into_iter().max().unwrap_or(0);
    api::generate_queries(
        workload,
        spec.cfg.nodes,
        count,
        spec.arity,
        spec.mix,
        mix64(spec.cfg.seed ^ 0xBA7C),
    )
}

/// One membership event of the churn script.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// First tick at or after the event's Poisson arrival time.
    pub tick: usize,
    /// Join, graceful leave or abrupt failure.
    pub kind: ChurnKind,
    /// Random draw the loop reduces to a live node (departures only).
    pub pick: u64,
}

/// Everything `churn_mix` feeds a system, generated before timing.
#[derive(Debug, Clone)]
pub struct ChurnScript {
    /// One `(origin draw, query)` per tick.
    pub queries: Vec<(u64, Query)>,
    /// The bed's reports followed by the registered stream, ten per tick;
    /// ground truth at tick `t` is the prefix `..base + 10 t`, and that
    /// prefix is what the maintenance round's `place_all` receives.
    pub reports: Vec<ResourceInfo>,
    /// Number of reports placed at bed build.
    pub base: usize,
    /// Membership events in tick order.
    pub events: Vec<ChurnEvent>,
    /// Seed of the RNG handed to `join_physical`.
    pub join_seed: u64,
    /// Physical nodes of the bed before any event.
    pub nodes: usize,
}

impl ChurnScript {
    /// The script for the longest cell of `spec`; each system runs a prefix.
    pub fn generate(spec: &Spec, workload: &Workload) -> Self {
        let ticks = spec.ops.into_iter().max().unwrap_or(0);
        let seed = spec.cfg.seed;
        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0xC4A2));
        let queries = api::generate_queries(
            workload,
            spec.cfg.nodes,
            ticks,
            spec.arity,
            spec.mix,
            mix64(seed ^ 0xC4A3),
        )
        .into_iter()
        .map(|(_, q)| (rng.gen::<u64>(), q))
        .collect();
        // The registered stream re-draws (attribute, value, owner) the way
        // the bed's own reports were drawn: a second workload, other seed.
        let stream_cfg = SimConfig { seed: mix64(seed ^ 0xC4A4), ..spec.cfg };
        let stream = api::generate_workload(&stream_cfg).reports;
        let base = workload.reports.len();
        let mut reports = workload.reports.clone();
        reports.extend(
            (0..ticks * REGISTERS_PER_TICK).map(|_| stream[rng.gen_range(0..stream.len())]),
        );
        let duration = ticks as f64 * TICK_SECONDS;
        let events = api::generate_churn(CHURN_RATE, duration, GRACEFUL_RATIO, &mut rng)
            .into_iter()
            .map(|(time, kind)| ChurnEvent {
                tick: ((time / TICK_SECONDS).ceil() as usize).saturating_sub(1),
                kind,
                pick: rng.gen::<u64>(),
            })
            .collect();
        Self {
            queries,
            reports,
            base,
            events,
            join_seed: mix64(seed ^ 0xC4A5),
            nodes: spec.cfg.nodes,
        }
    }

    /// Ground-truth report count when tick `t`'s query is issued.
    pub fn prefix_at(&self, tick: usize) -> usize {
        self.base + tick * REGISTERS_PER_TICK
    }
}
