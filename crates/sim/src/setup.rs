//! Shared experiment setup: configuration, workload, system construction.

use analysis::{Params, System};
use baselines::{Maan, MaanConfig, Mercury, MercuryConfig, Sword, SwordConfig};
use dht_core::SeedSpawner;
use grid_resource::{ResourceDiscovery, ValueDist, Workload, WorkloadConfig};
use lorm::{Lorm, LormConfig};

/// Experiment configuration. Defaults are the paper's §V setting:
/// 2048 nodes, 200 attributes, 500 values per attribute, Cycloid `d = 8`.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Physical nodes `n`.
    pub nodes: usize,
    /// Attributes `m`.
    pub attrs: usize,
    /// Values (reports) per attribute `k`.
    pub values: usize,
    /// Cycloid dimension `d` (`n` must not exceed `d·2^d`).
    pub dimension: u8,
    /// Root experiment seed.
    pub seed: u64,
    /// Value distribution of reports and queries.
    pub value_dist: ValueDist,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nodes: 2048,
            attrs: 200,
            values: 500,
            dimension: 8,
            seed: 0x1C99,
            value_dist: ValueDist::Uniform,
        }
    }
}

impl SimConfig {
    /// A scaled-down setting for quick runs and CI: a *full* `d = 7`
    /// Cycloid (896 nodes — full clusters, as the paper's setup has), 50
    /// attributes, 100 values.
    pub fn quick() -> Self {
        Self { nodes: 896, dimension: 7, attrs: 50, values: 100, ..Self::default() }
    }

    /// The analytical parameter tuple for this configuration.
    pub fn params(&self) -> Params {
        Params { n: self.nodes, m: self.attrs, k: self.values, d: self.dimension }
    }

    /// The workload configuration for this setting.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            num_attrs: self.attrs,
            values_per_attr: self.values,
            num_nodes: self.nodes,
            value_dist: self.value_dist,
            ..WorkloadConfig::default()
        }
    }
}

/// Construct one system over the workload's attribute space, with all
/// reports placed.
pub fn build_system(
    system: System,
    workload: &Workload,
    cfg: &SimConfig,
) -> Box<dyn ResourceDiscovery + Send + Sync> {
    let (n, seed, space) = (cfg.nodes, cfg.seed, &workload.space);
    let mut sys: Box<dyn ResourceDiscovery + Send + Sync> = match system {
        System::Lorm => Box::new(Lorm::new(
            n,
            space,
            LormConfig { dimension: cfg.dimension, seed, ..LormConfig::default() },
        )),
        System::Mercury => Box::new(Mercury::new(n, space, MercuryConfig { seed })),
        System::Sword => Box::new(Sword::new(n, space, SwordConfig { seed })),
        System::Maan => Box::new(Maan::new(n, space, MaanConfig { seed })),
    };
    sys.place_all(&workload.reports);
    sys
}

/// A complete test bed: the workload plus all four mounted systems.
pub struct TestBed {
    /// The experiment configuration.
    pub cfg: SimConfig,
    /// The generated workload (reports + attribute space).
    pub workload: Workload,
    /// The four systems, indexed in `System::ALL` order.
    pub systems: Vec<Box<dyn ResourceDiscovery + Send + Sync>>,
    /// Independent RNG streams for query generation etc.
    pub seeds: SeedSpawner,
}

impl TestBed {
    /// Build the full test bed (all four systems). This is the expensive
    /// step of every static experiment: Mercury alone instantiates `m`
    /// Chord hubs of `n` nodes.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_systems(cfg, &System::ALL)
    }

    /// The workload and seed streams a bed with this configuration mounts
    /// — the exact draw [`TestBed::new`] makes. Exposed so harnesses that
    /// time each `build_system` call individually (`repro perf`) can
    /// assemble a bed byte-identical to a `TestBed::new` build.
    pub fn workload_of(cfg: &SimConfig) -> (Workload, SeedSpawner) {
        let seeds = SeedSpawner::new(cfg.seed);
        let mut wl_rng = seeds.labelled(0xA0);
        let workload = Workload::generate(cfg.workload_config(), &mut wl_rng)
            // lint:allow(panic-hygiene): SimConfig always yields a valid
            // WorkloadConfig (nonzero counts, ordered domain).
            .expect("valid workload config");
        (workload, seeds)
    }

    /// Build a test bed with only the given systems (cheaper when Mercury
    /// is not needed).
    pub fn with_systems(cfg: SimConfig, systems: &[System]) -> Self {
        let (workload, seeds) = Self::workload_of(&cfg);
        let systems = systems.iter().map(|&s| build_system(s, &workload, &cfg)).collect();
        Self { cfg, workload, systems, seeds }
    }

    /// Borrow a mounted system by its enum tag (panics if not mounted).
    pub fn system(&self, s: System) -> &(dyn ResourceDiscovery + Send + Sync) {
        self.systems
            .iter()
            .find(|b| b.name() == s.name())
            .unwrap_or_else(|| panic!("{} not mounted", s.name()))
            .as_ref()
    }
}

impl Clone for TestBed {
    /// Deep-copy the whole bed: systems via [`ResourceDiscovery::clone_box`],
    /// workload and seed streams by value. The clone and the original are
    /// fully independent and behave identically under identical drives.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg,
            workload: self.workload.clone(),
            systems: self.systems.clone(),
            seeds: self.seeds.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_consistent() {
        let c = SimConfig::quick();
        assert!(c.nodes <= c.dimension as usize * (1 << c.dimension));
        let p = c.params();
        assert_eq!(p.n, c.nodes);
        assert_eq!(p.m, c.attrs);
    }

    #[test]
    fn build_single_system_places_reports() {
        let cfg = SimConfig { nodes: 128, attrs: 10, values: 20, ..SimConfig::default() };
        let seeds = SeedSpawner::new(cfg.seed);
        let w = Workload::generate(cfg.workload_config(), &mut seeds.labelled(0xA0)).unwrap();
        let sys = build_system(System::Sword, &w, &cfg);
        assert_eq!(sys.total_pieces(), 200);
        assert_eq!(sys.num_physical(), 128);
    }

    #[test]
    fn testbed_mounts_requested_systems() {
        let cfg = SimConfig { nodes: 64, attrs: 5, values: 10, ..SimConfig::default() };
        let bed = TestBed::with_systems(cfg, &[System::Lorm, System::Maan]);
        assert_eq!(bed.systems.len(), 2);
        assert_eq!(bed.system(System::Lorm).name(), "LORM");
        assert_eq!(bed.system(System::Maan).name(), "MAAN");
        // MAAN stores twice the pieces (Theorem 4.2)
        assert_eq!(
            bed.system(System::Maan).total_pieces(),
            2 * bed.system(System::Lorm).total_pieces()
        );
    }

    #[test]
    #[should_panic(expected = "not mounted")]
    fn missing_system_panics() {
        let cfg = SimConfig { nodes: 32, attrs: 3, values: 5, ..SimConfig::default() };
        let bed = TestBed::with_systems(cfg, &[System::Sword]);
        let _ = bed.system(System::Mercury);
    }
}
