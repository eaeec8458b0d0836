//! Figure 6 — efficiency under churn.
//!
//! The paper models the node join/departure rate `R` as a Poisson process
//! (one join *and* one departure every `1/R` seconds on average), varies
//! `R` from 0.1 to 0.5, issues 10000 resource requests, and reports that
//! the per-query cost barely moves and no queries fail:
//!
//! * **6(a)**: average logical hops of non-range queries vs `R`;
//! * **6(b)**: average visited nodes of range queries vs `R`.
//!
//! Reproduction choices (the paper leaves them implicit): requests are
//! issued at a fixed rate ([`TICKS_PER_SECOND`], so 10000 requests span
//! 1000 simulated seconds); each system runs its periodic maintenance
//! (stabilize + re-report all resources) every [`MAINTENANCE_PERIOD`]
//! simulated seconds, and joins/graceful departures additionally repair
//! their local neighborhood immediately, as the protocols do.

use crate::cache::BedCache;
use crate::experiments::{fan_out, ChurnCursor, Metric, MAINTENANCE_PERIOD, TICKS_PER_SECOND};
use crate::report::Report;
use crate::setup::SimConfig;
use crate::table::Table;
use analysis::{self as th, System};
use dht_core::Summary;
use grid_resource::{ChurnSchedule, QueryMix, ResourceDiscovery, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Churn experiment parameters.
#[derive(Debug, Clone)]
pub struct ChurnSetup {
    /// Poisson rates `R` to sweep (paper: 0.1 … 0.5).
    pub rates: Vec<f64>,
    /// Total resource requests (paper: 10000), one per tick of the
    /// [`TICKS_PER_SECOND`] clock.
    pub requests: usize,
    /// Attributes per query.
    pub arity: usize,
    /// Graceful departures (the paper's model) vs abrupt failures (an
    /// extension: no handoff, stale links until maintenance — queries can
    /// fail or return stale results between rounds).
    pub graceful: bool,
}

impl Default for ChurnSetup {
    fn default() -> Self {
        Self { rates: vec![0.1, 0.2, 0.3, 0.4, 0.5], requests: 10_000, arity: 5, graceful: true }
    }
}

impl ChurnSetup {
    /// A scaled-down sweep for tests and quick runs.
    pub fn quick() -> Self {
        Self { rates: vec![0.1, 0.4], requests: 400, ..Self::default() }
    }
}

/// Result of one (rate, system) churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnCell {
    /// Average of the metric per query.
    pub avg: f64,
    /// Full metric summary (count / mean / std / min / max, plus the
    /// failure count) — full precision for the JSON export.
    pub stats: Summary,
    /// Queries that failed to resolve (the paper observed none).
    pub failures: usize,
    /// Queries issued.
    pub queries: usize,
    /// Churn events applied.
    pub events: usize,
    /// Of the completeness-sampled queries, how many returned a *stale*
    /// (incomplete) answer — possible between maintenance rounds when
    /// departures are abrupt.
    pub stale: usize,
    /// Queries sampled for completeness.
    pub sampled: usize,
}

/// One churn-rate row across the four systems.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The Poisson rate `R`.
    pub rate: f64,
    /// Cells for LORM, Mercury, SWORD, MAAN.
    pub cells: [ChurnCell; 4],
    /// Closed-form expectation per system (Theorems 4.7–4.9).
    pub analysis: [f64; 4],
}

/// The Figure 6 series for one query mix.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Which metric/mix this run used.
    pub mix: QueryMix,
    /// One row per churn rate.
    pub rows: Vec<Fig6Row>,
}

/// Drive one system through one churn run. Returns the metric summary.
pub fn run_churn_one(
    sys: &mut (dyn ResourceDiscovery + Send + Sync),
    workload: &Workload,
    schedule: &ChurnSchedule,
    setup: &ChurnSetup,
    metric: Metric,
    seed: u64,
) -> ChurnCell {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mix = match metric {
        Metric::Hops => QueryMix::NonRange,
        // fig 6 is driven with Hops/Visited only; any other metric rides
        // the range-query leg.
        _ => QueryMix::Range,
    };
    let mut stats = Summary::new();
    let mut stale = 0usize;
    let mut sampled = 0usize;
    let mut churn = ChurnCursor::new(schedule, sys);
    let mut next_maintenance = MAINTENANCE_PERIOD;
    for i in 0..setup.requests {
        let now = (i + 1) as f64 / TICKS_PER_SECOND;
        churn.apply_due(sys, now, setup.graceful, &mut rng);
        // periodic maintenance: repair links, refresh reports
        if now >= next_maintenance {
            sys.stabilize();
            sys.place_all(&workload.reports);
            next_maintenance += MAINTENANCE_PERIOD;
        }
        // issue one query from a random live node
        let Some(origin) = churn.pick_live(sys, &mut rng) else {
            stats.record_failure();
            continue;
        };
        let q = workload.random_query(setup.arity, mix, &mut rng);
        match sys.query_from(origin, &q) {
            Ok(out) => {
                stats.record(metric.of(&out.tally));
                // Sample completeness against the ground-truth reports:
                // compare matched-piece counts per sub-query (the joined
                // owner set of a high-arity conjunction is almost always
                // empty, which would mask losses).
                if i % 25 == 0 {
                    sampled += 1;
                    let expected: usize = q
                        .subs
                        .iter()
                        .map(|sub| {
                            workload
                                .reports
                                .iter()
                                .filter(|r| r.attr == sub.attr && sub.target.matches(r.value))
                                .count()
                        })
                        .sum();
                    if out.tally.matches < expected {
                        stale += 1;
                    }
                }
            }
            Err(_) => stats.record_failure(),
        }
    }
    ChurnCell {
        avg: stats.mean(),
        failures: stats.failures() as usize,
        stats,
        queries: setup.requests,
        events: churn.applied,
        stale,
        sampled,
    }
}

/// Run the full Figure 6 sweep for one metric. Each system is built once
/// in `cache` and every (rate, system) run starts from a deep clone of
/// that prototype — identical to a fresh build, but the sweep pays
/// construction once per system instead of once per cell, and repeated
/// sweeps (both fig6 metrics, the perf kernels) share one set of
/// prototypes.
pub fn fig6(cfg: &SimConfig, setup: &ChurnSetup, metric: Metric, cache: &BedCache) -> Fig6 {
    let p = cfg.params();
    let wl_seed = cfg.seed ^ 0xF6;
    let workload = cache.churn_workload(cfg, wl_seed);
    let duration = setup.requests as f64 / TICKS_PER_SECOND;
    let mut rows = Vec::new();
    for &rate in &setup.rates {
        let mut sched_rng = SmallRng::seed_from_u64(cfg.seed ^ (rate * 1000.0) as u64);
        let schedule = ChurnSchedule::generate(rate, duration, &mut sched_rng);
        // First rate: builds the prototypes (misses run in parallel, one
        // per system). Later rates: deep clones, byte-identical to fresh
        // builds.
        let cells = fan_out(System::ALL, |s| {
            let mut sys = cache.churn_proto(s, cfg, wl_seed);
            let seed = cfg.seed ^ 0xC6 ^ (rate * 100.0) as u64;
            run_churn_one(sys.as_mut(), &workload, &schedule, setup, metric, seed)
        });
        let analysis = System::ALL.map(|s| match metric {
            Metric::Hops => th::nonrange_hops(&p, setup.arity, s),
            // closed forms exist for the paper's two figure metrics only
            _ => th::range_visited(&p, setup.arity, s),
        });
        let cells = cells.try_into().expect("one cell per System::ALL member");
        rows.push(Fig6Row { rate, cells, analysis });
    }
    Fig6 {
        mix: match metric {
            Metric::Hops => QueryMix::NonRange,
            _ => QueryMix::Range,
        },
        rows,
    }
}

impl Fig6 {
    /// Build the structured report (the sweep table, the metric note, and
    /// per-system summaries merged over every churn rate).
    pub fn report(&self) -> Report {
        let (title, what) = match self.mix {
            QueryMix::NonRange => {
                ("Figure 6(a): avg logical hops per non-range query under churn", "hops")
            }
            QueryMix::Range => {
                ("Figure 6(b): avg visited nodes per range query under churn", "visited")
            }
        };
        let mut t = Table::new(
            title,
            &[
                "R",
                "LORM",
                "Mercury",
                "SWORD",
                "MAAN",
                "An-LORM",
                "An-Mercury",
                "An-SWORD",
                "An-MAAN",
                "failures",
                "stale%",
            ],
        );
        for r in &self.rows {
            let total_failures: usize = r.cells.iter().map(|c| c.failures).sum();
            let (stale, sampled) =
                r.cells.iter().fold((0usize, 0usize), |(s, n), c| (s + c.stale, n + c.sampled));
            t.row(vec![
                format!("{:.1}", r.rate),
                Table::fmt_f(r.cells[0].avg),
                Table::fmt_f(r.cells[1].avg),
                Table::fmt_f(r.cells[2].avg),
                Table::fmt_f(r.cells[3].avg),
                Table::fmt_f(r.analysis[0]),
                Table::fmt_f(r.analysis[1]),
                Table::fmt_f(r.analysis[2]),
                Table::fmt_f(r.analysis[3]),
                total_failures.to_string(),
                Table::fmt_f(if sampled == 0 {
                    0.0
                } else {
                    100.0 * stale as f64 / sampled as f64
                }),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        rep.note(format!(
            "(metric: {what} per query; analysis columns are the static closed forms)"
        ));
        let mut summaries: Vec<(&'static str, Summary)> =
            System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
        for r in &self.rows {
            for (i, c) in r.cells.iter().enumerate() {
                summaries[i].1.merge(&c.stats);
            }
        }
        for (name, s) in summaries {
            rep.summary(name, s);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::build_system;

    fn small_cfg() -> SimConfig {
        SimConfig { nodes: 384, attrs: 20, values: 50, dimension: 7, ..SimConfig::default() }
    }

    #[test]
    fn churn_run_completes_without_failures() {
        let cfg = small_cfg();
        let mut wl_rng = SmallRng::seed_from_u64(1);
        let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
        let setup = ChurnSetup { requests: 150, ..ChurnSetup::quick() };
        let mut sched_rng = SmallRng::seed_from_u64(2);
        let schedule = ChurnSchedule::generate(0.4, 15.0, &mut sched_rng);
        let mut sys = build_system(System::Lorm, &workload, &cfg);
        let cell = run_churn_one(sys.as_mut(), &workload, &schedule, &setup, Metric::Hops, 3);
        assert_eq!(cell.failures, 0, "graceful churn must not fail queries");
        assert!(cell.avg > 1.0, "avg hops {}", cell.avg);
        assert!(cell.events > 0, "schedule should produce events");
    }

    #[test]
    fn churn_metric_close_to_static_analysis_for_sword() {
        // SWORD's hops under churn should stay near arity × log2(n)/2.
        let cfg = small_cfg();
        let mut wl_rng = SmallRng::seed_from_u64(4);
        let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
        let setup = ChurnSetup { requests: 200, arity: 3, ..ChurnSetup::quick() };
        let mut sched_rng = SmallRng::seed_from_u64(5);
        let schedule = ChurnSchedule::generate(0.3, 20.0, &mut sched_rng);
        let mut sys = build_system(System::Sword, &workload, &cfg);
        let cell = run_churn_one(sys.as_mut(), &workload, &schedule, &setup, Metric::Hops, 6);
        let expect = 3.0 * (384.0f64).log2() / 2.0;
        assert!((cell.avg - expect).abs() < expect * 0.35, "avg {} vs analysis {expect}", cell.avg);
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn maintenance_rounds_are_pinned_for_every_system() {
        // 1 100 requests span 110 simulated seconds: maintenance rounds run
        // at 50 s and 100 s. Departures are abrupt, so what a round repairs
        // shows in the cells. With d = 7 and 384 nodes the Cycloid is 43 %
        // full, so ownership resolves through sparse clusters.
        let cfg = small_cfg();
        let mut wl_rng = SmallRng::seed_from_u64(11);
        let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
        let setup = ChurnSetup {
            rates: vec![0.4],
            requests: 1_100,
            graceful: false,
            ..ChurnSetup::quick()
        };
        let duration = setup.requests as f64 / TICKS_PER_SECOND;
        let schedule = ChurnSchedule::generate(0.4, duration, &mut SmallRng::seed_from_u64(12));
        let mut words = Vec::new();
        for s in System::ALL {
            let mut sys = build_system(s, &workload, &cfg);
            let c = run_churn_one(sys.as_mut(), &workload, &schedule, &setup, Metric::Visited, 13);
            words.extend([c.avg.to_bits(), c.failures as u64, c.events as u64]);
            words.extend([c.stale as u64, c.sampled as u64]);
        }
        assert_eq!(fnv1a(&words), 0x0843_13f4_ec0f_61f2, "fig6 churn cells moved");
    }
}
