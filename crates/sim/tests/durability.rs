//! Determinism contract of the durability layer:
//!
//! * the durability `Report` JSON is **byte-identical** across probe
//!   shard counts (1 vs 3) for any (seed, rate, degree) — replication
//!   and repair live entirely outside the sharded reduction;
//! * `set_replication(1)` is a strict no-op: a Figure 6 churn cell run
//!   on a system that passed through `set_replication(1)` reproduces the
//!   unreplicated cell's report **bytes** exactly;
//! * replaying the identical churn/fault interleaving twice produces
//!   byte-identical durability JSON (no hidden global state).

use grid_resource::{ChurnSchedule, Workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim::experiments::durability::{run_durability_one, DurabilitySetup};
use sim::experiments::fig6::{run_churn_one, ChurnSetup};
use sim::experiments::Metric;
use sim::report::summary_json;
use sim::setup::{build_system, SimConfig};
use sim::{BedCache, Report};
use std::sync::OnceLock;

fn small_cfg() -> SimConfig {
    SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() }
}

/// One shared cache: the four churn prototypes dominate the budget and
/// every property replays deep clones of them.
fn cache() -> &'static BedCache {
    static CACHE: OnceLock<BedCache> = OnceLock::new();
    CACHE.get_or_init(BedCache::new)
}

/// Render one durability cell as a `Report` JSON string — the byte-level
/// artifact the determinism contract covers.
fn cell_json(
    system: analysis::System,
    setup: &DurabilitySetup,
    rate: f64,
    k: usize,
    seed: u64,
) -> String {
    let cfg = SimConfig { seed, ..small_cfg() };
    let wl_seed = seed ^ 0xD7;
    let workload = cache().churn_workload(&cfg, wl_seed);
    let mut sched_rng = SmallRng::seed_from_u64(seed ^ 0xDB ^ (rate * 1000.0) as u64);
    let schedule = ChurnSchedule::generate_with_failures(
        rate,
        setup.duration,
        setup.graceful_ratio,
        &mut sched_rng,
    );
    let mut sys = cache().churn_proto(system, &cfg, wl_seed);
    let cell = run_durability_one(sys.as_mut(), &workload, &schedule, setup, k, seed ^ 0xD6);
    let mut rep = Report::new();
    rep.summary(system.name(), cell.probe.clone());
    rep.note(format!(
        "initial={} surviving={} loss={} events={} rounds={} copies={} promotions={} dropped={}",
        cell.initial,
        cell.surviving,
        cell.loss,
        cell.events,
        cell.repair_rounds,
        cell.repair_copies,
        cell.repair_promotions,
        cell.repair_dropped,
    ));
    rep.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte-identical durability JSON at probe shard counts 1 and 3, and
    /// across two replays of the same interleaving, for any seed, churn
    /// rate, and replication degree, on the systems with both placement
    /// rules (successor-list and leaf-set/cluster).
    #[test]
    fn durability_json_is_byte_identical_across_shards(
        seed in 0u64..1000,
        rate_pct in 1u32..8,
        k in 1usize..4,
    ) {
        let rate = rate_pct as f64 / 10.0;
        let base = DurabilitySetup {
            duration: 100.0,
            graceful_ratio: 0.5,
            probe_origins: 6,
            probe_per_origin: 2,
            ..DurabilitySetup::quick()
        };
        for system in [analysis::System::Sword, analysis::System::Lorm] {
            let one = cell_json(system, &DurabilitySetup { shards: 1, ..base.clone() }, rate, k, seed);
            let three = cell_json(system, &DurabilitySetup { shards: 3, ..base.clone() }, rate, k, seed);
            prop_assert_eq!(&one, &three, "shard count changed durability bytes");
            let replay = cell_json(system, &DurabilitySetup { shards: 3, ..base.clone() }, rate, k, seed);
            prop_assert_eq!(&three, &replay, "replay changed durability bytes");
        }
    }
}

#[test]
fn set_replication_one_reproduces_unreplicated_churn_bytes() {
    // The k = 1 guard must make replication invisible: the same churn
    // cell, on a system that passed through set_replication(1), renders
    // the exact same summary bytes as one that never heard of
    // replication.
    let cfg = small_cfg();
    let mut wl_rng = SmallRng::seed_from_u64(31);
    let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
    let setup = ChurnSetup { requests: 150, ..ChurnSetup::quick() };
    let mut sched_rng = SmallRng::seed_from_u64(32);
    let schedule = ChurnSchedule::generate_with_failures(0.4, 15.0, 0.5, &mut sched_rng);
    for system in analysis::System::ALL {
        let mut pristine = build_system(system, &workload, &cfg);
        let visited = Metric::Visited;
        let baseline = run_churn_one(pristine.as_mut(), &workload, &schedule, &setup, visited, 33);
        let mut wired = build_system(system, &workload, &cfg);
        wired.set_replication(1);
        assert_eq!(wired.replication(), 1);
        let cell = run_churn_one(wired.as_mut(), &workload, &schedule, &setup, visited, 33);
        assert_eq!(
            summary_json(system.name(), &cell.stats),
            summary_json(system.name(), &baseline.stats),
            "{}: set_replication(1) changed churn bytes",
            system.name()
        );
        assert_eq!(cell, baseline, "{}", system.name());
        assert_eq!(wired.repair_stats().rounds(), 0, "{}: k=1 ran repair", system.name());
    }
}
