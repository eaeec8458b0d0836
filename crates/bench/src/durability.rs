//! `repro durability` — the replication/durability sweep.
//!
//! Drives every (churn rate × replication degree × system) cell of the
//! durability experiment, renders the data-loss and repair-traffic
//! tables, and serializes against the stable `lorm-repro/durability-v1`
//! schema (documented in docs/SCHEMAS.md). Two result-bearing checks ride
//! along and make the binary exit non-zero on violation — the same
//! pattern as `repro scale`'s growth checks:
//!
//! * **k-monotonicity** — surviving pieces non-decreasing in the
//!   replication degree at every rate and system (pathwise guarantee);
//! * **theory checks** — the simulated successor staleness and
//!   lookup-failure fractions must match Krishnamurthy et al.'s closed
//!   forms within the stated tolerance bands.

use crate::{export_head, ReproConfig};
use analysis::System;
use sim::experiments::durability::{
    durability, Durability, DurabilityCell, DurabilityRow, DurabilitySetup, TheoryCheck,
};
use sim::experiments::MAINTENANCE_PERIOD;
use sim::BedCache;

/// Run the durability sweep at the configuration's scale: every (rate,
/// degree, system) cell clones one prototype per system out of `cache`,
/// so the sweep pays construction once per system total.
pub fn run_durability(cfg: &ReproConfig, cache: &BedCache) -> Durability {
    let mut setup = if cfg.quick { DurabilitySetup::quick() } else { DurabilitySetup::default() };
    setup.shards = cfg.shards;
    durability(&cfg.sim(), &setup, cache)
}

/// Serialize a durability sweep against the stable
/// `lorm-repro/durability-v1` schema.
pub fn render_durability_json(cfg: &ReproConfig, d: &Durability) -> String {
    use sim::report::{json_array, json_num, json_str, summary_json};
    let cell = |(name, c): (&str, &DurabilityCell)| {
        format!(
            "{{\"system\":{},\"initial\":{},\"surviving\":{},\"loss\":{},\"events\":{},\
             \"repair_rounds\":{},\"repair_copies\":{},\"repair_promotions\":{},\
             \"repair_dropped\":{},\"repair_transfers\":{},\"probe\":{}}}",
            json_str(name),
            c.initial,
            c.surviving,
            json_num(c.loss),
            c.events,
            c.repair_rounds,
            c.repair_copies,
            c.repair_promotions,
            c.repair_dropped,
            c.repair_transfers(),
            summary_json(name, &c.probe),
        )
    };
    let row = |r: &DurabilityRow| {
        let cells = System::ALL.iter().map(|s| s.name()).zip(&r.cells);
        format!(
            "{{\"rate\":{},\"k\":{},\"cells\":{}}}",
            json_num(r.rate),
            r.k,
            json_array(cells.map(cell))
        )
    };
    let check = |c: &TheoryCheck| {
        format!(
            "{{\"name\":{},\"rate\":{},\"simulated\":{},\"predicted\":{},\"tol_rel\":{},\
             \"tol_abs\":{},\"ok\":{}}}",
            json_str(&c.name),
            json_num(c.rate),
            json_num(c.simulated),
            json_num(c.predicted),
            json_num(c.tol_rel),
            json_num(c.tol_abs),
            c.ok,
        )
    };
    let s = &d.setup;
    let violations = d.k_monotonicity_violations();
    format!(
        "{},\"rates\":{},\"degrees\":{},\"duration\":{},\"maintenance_period\":{},\
         \"graceful_ratio\":{}}},\"rows\":{},\"k_monotonicity\":{{\"ok\":{},\"violations\":{}}},\
         \"theory_checks\":{}}}",
        export_head("lorm-repro/durability-v1", cfg, true),
        json_array(s.rates.iter().map(|&x| json_num(x))),
        json_array(s.degrees.iter().map(usize::to_string)),
        json_num(s.duration),
        json_num(MAINTENANCE_PERIOD),
        json_num(s.graceful_ratio),
        json_array(d.rows.iter().map(row)),
        violations.is_empty(),
        json_array(violations.iter().map(|v| json_str(v))),
        json_array(d.checks.iter().map(check)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::experiments::durability::durability;
    use sim::SimConfig;

    fn tiny_durability() -> (ReproConfig, Durability) {
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let sim_cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let setup = DurabilitySetup {
            rates: vec![0.4],
            degrees: vec![1, 2],
            duration: 100.0,
            probe_origins: 6,
            probe_per_origin: 2,
            ..DurabilitySetup::quick()
        };
        (cfg, durability(&sim_cfg, &setup, &sim::BedCache::new()))
    }

    #[test]
    fn durability_json_has_schema_rows_and_checks() {
        let (cfg, d) = tiny_durability();
        let j = render_durability_json(&cfg, &d);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/durability-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"rates\":[0.4]"), "{j}");
        assert!(j.contains("\"degrees\":[1,2]"), "{j}");
        assert!(j.contains("\"system\":\"LORM\""), "{j}");
        assert!(j.contains("\"system\":\"MAAN\""), "{j}");
        assert!(j.contains("\"loss\":"), "{j}");
        assert!(j.contains("\"repair_transfers\":"), "{j}");
        assert!(j.contains("\"k_monotonicity\":{\"ok\":true,\"violations\":[]}"), "{j}");
        assert!(j.contains("\"theory_checks\":[{\"name\":\"stale_first_successor\""), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(crate::tests::fnv1a(&j), 0x6ae2_cda0_a0cb_ae2b, "durability-v1 writer moved");
    }

    #[test]
    fn quick_sweep_renders_the_recorded_export() {
        // `repro durability --quick --shards=1`, recorded on the commit that
        // added this pin: the export carries no clock, so the digest covers
        // every byte the command writes.
        let cfg = ReproConfig { quick: true, shards: 1, ..ReproConfig::default() };
        let j = render_durability_json(&cfg, &run_durability(&cfg, &BedCache::new()));
        assert_eq!(crate::tests::fnv1a(&j), 0x25a8_291b_ef75_04ce, "quick durability export moved");
    }

    #[test]
    fn durability_rows_cover_the_degree_grid() {
        assert!(DurabilitySetup::quick().degrees.contains(&1), "the quick grid has the k=1 row");
        let (_, d) = tiny_durability();
        assert_eq!(d.rows.len(), 2, "1 rate x 2 degrees");
        let k1 = &d.rows[0];
        let k2 = &d.rows[1];
        assert_eq!((k1.k, k2.k), (1, 2));
        for (a, b) in k1.cells.iter().zip(k2.cells.iter()) {
            assert_eq!(a.initial, b.initial, "identity census must not depend on k");
            assert!(b.surviving >= a.surviving, "k=2 must not lose more than k=1");
            assert_eq!(a.repair_transfers(), 0, "k=1 repair must be a no-op");
        }
        for c in d.rows.iter().flat_map(|r| &r.cells) {
            assert!(0 < c.surviving && c.surviving <= c.initial, "{c:?}");
            assert_eq!(c.loss, 1.0 - c.surviving as f64 / c.initial as f64);
            assert!(c.probe.count() > 0, "the post-churn probe ran no queries");
        }
        // 4 Krishnamurthy estimators x the theory bed's 2 churn rates
        assert_eq!(d.checks.len(), 8);
        assert!(d.violations().is_empty(), "{:?}", d.violations());
    }
}
