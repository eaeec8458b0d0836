//! Chaos soak: the seeded fault sweep on a 1024-node bed, all four
//! systems. Pins the three dynamic guarantees of the fault layer that
//! the unit tests only check on small beds:
//!
//! * success rates degrade **monotonically** in the loss rate at fixed
//!   failure fraction (the fault-coin firing sets are nested by rate);
//! * every query is accounted for: `failures + partial + successes ==
//!   total`, in every cell, for every system;
//! * a zero-fault [`FaultPlan`] leaves the exported `Report` JSON
//!   **byte-identical** to the fault-free path, at 1 and 3 shards.

use dht_core::FaultPlan;
use grid_resource::{QueryMix, QueryPlan};
use sim::experiments::chaos::{chaos, ChaosSetup};
use sim::experiments::{query_batch, run_batch, BatchMode, Metric};
use sim::setup::{SimConfig, TestBed};
use sim::Report;
use std::sync::OnceLock;

/// One shared 1024-node bed: building the four systems dominates the
/// soak budget, and every test here replays batches against it.
fn bed() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::new(SimConfig {
            nodes: 1024,
            dimension: 8,
            attrs: 20,
            values: 60,
            ..SimConfig::default()
        })
    })
}

#[test]
fn soak_sweep_degrades_monotonically_and_accounts_every_query() {
    let setup = ChaosSetup {
        loss_rates: vec![0.0, 0.05, 0.2],
        fail_fracs: vec![0.0, 0.1],
        origins: 50,
        per_origin: 4,
        arity: 3,
    };
    let c = chaos(bed(), setup.clone(), 0);
    assert_eq!(c.queries, setup.origins * setup.per_origin);
    assert_eq!(c.systems.len(), 4, "all four systems swept");
    // Accounting, zero-fault parity and monotone degradation: the same
    // verdict `repro chaos` exits on.
    let violations = c.violations();
    assert!(violations.is_empty(), "{violations:?}");
    for sys in &c.systems {
        // the zero-fault cell drops nothing, and the 20%-loss cells
        // actually exercised the fault layer
        assert_eq!(sys.cells[0].summary.dropped_msgs(), 0, "{}", sys.name);
        let lossy =
            sys.cells.iter().find(|cl| cl.loss == 0.2 && cl.fail_frac == 0.0).expect("lossy cell");
        assert!(lossy.summary.dropped_msgs() > 0, "{}", sys.name);
    }
}

#[test]
fn zero_fault_plan_report_json_is_byte_identical_to_fault_free() {
    let bed = bed();
    let batch = query_batch(&bed.workload, bed.cfg.nodes, 30, 3, 3, QueryMix::Range, 0xFA117);
    let plan = FaultPlan::none();
    for metric in [Metric::Hops, Metric::Visited] {
        let mut plain = Report::new();
        let mut faulty_seq = Report::new();
        let mut faulty_par = Report::new();
        for sys in &bed.systems {
            let run = |mode, shards| run_batch(sys.as_ref(), &batch, metric, mode, shards);
            plain.summary(sys.name(), run(BatchMode::Direct(QueryPlan::Parallel), 1));
            faulty_seq.summary(sys.name(), run(BatchMode::Faulty(&plan), 1));
            faulty_par.summary(sys.name(), run(BatchMode::Faulty(&plan), 3));
        }
        assert_eq!(plain.to_json(), faulty_seq.to_json(), "{metric:?} shards=1");
        assert_eq!(plain.to_json(), faulty_par.to_json(), "{metric:?} shards=3");
    }
}

#[test]
fn faulty_sweep_is_a_pure_function_of_the_seeds() {
    // Same bed, same batch, same plan — the degraded summaries must be
    // bit-identical across repeated runs (the chaos-v1 export contract).
    let bed = bed();
    let batch = query_batch(&bed.workload, bed.cfg.nodes, 20, 3, 3, QueryMix::Range, 0x50AC);
    let plan = FaultPlan::new(0xC4A0_5EED, 0.2, 0.1).unwrap();
    for sys in &bed.systems {
        let run = || run_batch(sys.as_ref(), &batch, Metric::Hops, BatchMode::Faulty(&plan), 3);
        let (a, b) = (run(), run());
        assert_eq!(a.count(), b.count(), "{}", sys.name());
        assert_eq!(a.failures(), b.failures(), "{}", sys.name());
        assert_eq!(a.partial(), b.partial(), "{}", sys.name());
        assert_eq!(a.retries(), b.retries(), "{}", sys.name());
        assert_eq!(a.dropped_msgs(), b.dropped_msgs(), "{}", sys.name());
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "{}", sys.name());
    }
}

#[test]
fn churn_with_interleaved_ungraceful_failures_stays_sound() {
    // ChurnKind::Fail events interleaved mid-schedule (half the
    // departures abrupt): the churn loop must survive the stale routing
    // state — cluster collapses, dead successor-list entries — without
    // panicking, and stay deterministic, on every system.
    use grid_resource::{ChurnKind, ChurnSchedule};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sim::experiments::fig6::{run_churn_one, ChurnSetup};
    use sim::BedCache;
    let cfg = SimConfig {
        nodes: 384,
        dimension: 6,
        attrs: 10,
        values: 30,
        seed: 0xFA11,
        ..SimConfig::default()
    };
    let setup = ChurnSetup { requests: 200, ..ChurnSetup::quick() };
    let mut sched_rng = SmallRng::seed_from_u64(cfg.seed);
    let schedule = ChurnSchedule::generate_with_failures(0.4, 20.0, 0.5, &mut sched_rng);
    assert!(schedule.events().iter().any(|e| e.kind == ChurnKind::Fail));
    let cache = BedCache::new();
    let workload = cache.churn_workload(&cfg, cfg.seed);
    for system in analysis::System::ALL {
        let run = || {
            let mut sys = cache.churn_proto(system, &cfg, cfg.seed);
            run_churn_one(sys.as_mut(), &workload, &schedule, &setup, Metric::Hops, 7)
        };
        let (once, again) = (run(), run());
        assert_eq!(once, again, "{}: ungraceful churn must stay deterministic", system.name());
        assert!(once.events > 0 && once.stats.count() > 0, "{}: {once:?}", system.name());
    }
}

#[test]
fn failure_schedule_generation_is_deterministic() {
    // Same seed, same ratio → the interleaved ChurnKind::Fail events
    // land at identical times in identical order.
    use grid_resource::ChurnSchedule;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let gen = || {
        let mut rng = SmallRng::seed_from_u64(0xF41D);
        ChurnSchedule::generate_with_failures(0.4, 100.0, 0.5, &mut rng)
    };
    let (a, b) = (gen(), gen());
    assert_eq!(a.events(), b.events());
    assert!(
        a.events().iter().any(|e| e.kind == grid_resource::ChurnKind::Fail),
        "ratio 0.5 over 100s must schedule some abrupt failures"
    );
}

#[test]
fn soak_data_loss_is_monotone_in_replication_degree() {
    // The durability sweep on the soak-scale 1024-node configuration:
    // at every churn rate and for every system, the number of surviving
    // piece identities must be non-decreasing in the replication degree
    // k. The guarantee is pathwise, not statistical — every degree
    // replays the identical churn sample and both placement rules
    // (successor-list and leaf-set/cluster) are prefix rules in k — so
    // the assertion is exact, on integer counts.
    use sim::experiments::durability::{durability, DurabilitySetup};
    use sim::BedCache;
    let cfg =
        SimConfig { nodes: 1024, dimension: 8, attrs: 20, values: 60, ..SimConfig::default() };
    let setup = DurabilitySetup {
        rates: vec![0.2, 0.6],
        degrees: vec![1, 2, 3],
        duration: 100.0,
        graceful_ratio: 0.0, // every departure abrupt: worst case for durability
        probe_origins: 10,
        probe_per_origin: 2,
        ..DurabilitySetup::quick()
    };
    let d = durability(&cfg, &setup, &BedCache::new());
    assert_eq!(d.rows.len(), 6, "2 rates x 3 degrees");
    let violations = d.k_monotonicity_violations();
    assert!(violations.is_empty(), "{violations:?}");
    // The soak must measure something: fully abrupt churn at the heavy
    // rate has to lose pieces somewhere at k = 1...
    let heavy_k1 = d.rows.iter().find(|r| r.rate == 0.6 && r.k == 1).expect("heavy-churn k=1 row");
    assert!(
        heavy_k1.cells.iter().any(|c| c.loss > 0.0),
        "no system lost anything at k=1 under abrupt churn"
    );
    // ...and replication has to repair: every system moves pieces at k=3.
    let heavy_k3 = d.rows.iter().find(|r| r.rate == 0.6 && r.k == 3).expect("heavy-churn k=3 row");
    for (i, c) in heavy_k3.cells.iter().enumerate() {
        assert!(c.repair_transfers() > 0, "system {i} repaired nothing at k=3");
        assert!(c.repair_rounds > 0, "system {i} ran no repair rounds");
    }
}
