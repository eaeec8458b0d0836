//! `repro chaos` — the fault-injection robustness sweep.
//!
//! Replays a fixed range-query batch through all four systems under
//! every (message-loss rate × ungraceful-failure fraction) cell of a
//! seeded sweep and renders the success-rate / hop-inflation curves
//! against the stable `lorm-repro/chaos-v1` schema (documented in
//! EXPERIMENTS.md). Every system's fault-free baseline summary is
//! embedded in the export, so a reader can check the zero-fault cell
//! against it without re-running anything; `repro chaos` itself exits 1
//! when that parity, or any other `Chaos::violations` invariant, breaks.

use crate::{export_head, ReproConfig};
use sim::experiments::chaos::{chaos, Chaos, ChaosCell, ChaosSetup, ChaosSystem, FAULT_SEED};
use sim::BedCache;

/// Run the chaos sweep at the configuration's scale on the bed `cache`
/// holds for it. The sweep itself already reuses one bed across every
/// (loss × fail) cell, so the cache's contribution is sharing that bed
/// with any other pipeline in the same invocation (e.g. the perf
/// harness's figure kernels).
pub fn run_chaos(cfg: &ReproConfig, cache: &BedCache) -> Chaos {
    let setup = if cfg.quick { ChaosSetup::quick() } else { ChaosSetup::default() };
    let bed = cache.bed(cfg.sim());
    chaos(&bed, setup, cfg.shards)
}

/// Serialize a chaos sweep against the stable `lorm-repro/chaos-v1`
/// schema.
///
/// Per system the export carries the fault-free `baseline` summary and
/// one object per sweep cell; cell summaries are rendered by the same
/// serializer as the baseline, so zero-fault parity is a plain
/// field-by-field equality for consumers (floats round-trip via Rust's
/// shortest-representation formatting, which is injective on bits).
pub fn render_chaos_json(cfg: &ReproConfig, c: &Chaos) -> String {
    use sim::report::{json_array, json_num, json_str, summary_json};
    let rates = |xs: &[f64]| json_array(xs.iter().map(|&x| json_num(x)));
    let system = |sys: &ChaosSystem| {
        let cell = |cell: &ChaosCell| {
            format!(
                "{{\"loss\":{},\"fail_frac\":{},\"success_rate\":{},\"hop_inflation\":{},\"summary\":{}}}",
                json_num(cell.loss),
                json_num(cell.fail_frac),
                json_num(cell.success_rate()),
                json_num(cell.hop_inflation(&sys.baseline)),
                summary_json(sys.name, &cell.summary)
            )
        };
        format!(
            "{{\"name\":{},\"baseline\":{},\"cells\":{}}}",
            json_str(sys.name),
            summary_json(sys.name, &sys.baseline),
            json_array(sys.cells.iter().map(cell))
        )
    };
    format!(
        "{},\"fault_seed\":{},\"queries\":{},\"arity\":{},\"loss_rates\":{},\"fail_fracs\":{}}},\"systems\":{}}}",
        export_head("lorm-repro/chaos-v1", cfg, true),
        FAULT_SEED,
        c.queries,
        c.setup.arity,
        rates(&c.setup.loss_rates),
        rates(&c.setup.fail_fracs),
        json_array(c.systems.iter().map(system))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::experiments::chaos::ChaosSetup;
    use sim::{SimConfig, TestBed};

    fn tiny_chaos() -> (ReproConfig, Chaos) {
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let sim_cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(sim_cfg);
        let setup = ChaosSetup {
            loss_rates: vec![0.0, 0.2],
            fail_fracs: vec![0.0],
            origins: 10,
            per_origin: 3,
            arity: 2,
        };
        let c = chaos(&bed, setup, cfg.shards);
        (cfg, c)
    }

    #[test]
    fn chaos_json_has_schema_config_and_systems() {
        let (cfg, c) = tiny_chaos();
        let j = render_chaos_json(&cfg, &c);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/chaos-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"fault_seed\":"), "{j}");
        assert!(j.contains("\"loss_rates\":[0,0.2]"), "{j}");
        assert!(j.contains("\"fail_fracs\":[0]"), "{j}");
        assert!(j.contains("\"name\":\"LORM\""), "{j}");
        assert!(j.contains("\"baseline\":{\"label\":\"LORM\""), "{j}");
        assert!(j.contains("\"success_rate\":1"), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(crate::tests::fnv1a(&j), 0xaa28_75af_ee1e_323d, "chaos-v1 writer moved");
    }

    #[test]
    fn quick_sweep_renders_the_recorded_export() {
        // `repro chaos --quick --seed=3 --shards=1`: unlike the writer
        // fixture above, it sweeps a non-zero failure fraction, so the
        // dead-hop retry path is pinned too.
        let cfg = ReproConfig { quick: true, seed: 3, shards: 1, ..ReproConfig::default() };
        let c = run_chaos(&cfg, &BedCache::new());
        let j = render_chaos_json(&cfg, &c);
        assert_eq!(crate::tests::fnv1a(&j), 0x5ade_218d_934d_aca4, "quick chaos export moved");
    }

    #[test]
    fn zero_fault_cell_serializes_bit_identical_to_baseline() {
        // The parity guarantee in serialized form: the zero-fault cell's
        // summary object is the exact same string as the baseline's.
        let (cfg, c) = tiny_chaos();
        let j = render_chaos_json(&cfg, &c);
        use sim::report::summary_json;
        for sys in &c.systems {
            let baseline = summary_json(sys.name, &sys.baseline);
            let zero = &sys.cells[0];
            assert_eq!(zero.loss, 0.0);
            assert_eq!(zero.fail_frac, 0.0);
            assert_eq!(summary_json(sys.name, &zero.summary), baseline, "{}", sys.name);
            // both the baseline field and the parity cell carry it
            assert!(j.matches(baseline.as_str()).count() >= 2, "{}", sys.name);
        }
    }
}
