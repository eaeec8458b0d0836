//! # bench — the figure-regeneration harness
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation section and prints them as markdown tables (the same rows /
//! series the paper plots). `repro perf` times the underlying kernels
//! (routing, range probes, bed construction, the quick pipelines).
//!
//! ```text
//! repro [--quick] [fig3a fig3 fig4 fig5 fig6a fig6b t410 ablations | all]
//! repro [--quick] perf    # wall-clock kernel baseline (perf-v2 schema)
//! repro [--quick] chaos   # fault-injection sweep (chaos-v1 schema)
//! repro [--quick] scale   # 1k -> 1M scaling sweep (perf-v2 schema)
//! repro [--quick] durability  # replication sweep (durability-v1 schema)
//! ```
//!
//! `chaos`, `scale` and `durability` check their sweep's invariants and
//! exit 1 on a breach; `perf` and `scale` also exit 1 on a kernel slower
//! than its gate against `--baseline <BENCH.json>`. The exit status is
//! the whole verdict.
//!
//! Every output takes one path. Terminal output is a [`sim::Report`] of
//! [`sim::Table`]s — each figure's `report()`, [`perf::perf_report`],
//! [`perf::delta_table`], [`scale::ScaleRun::report`], the chaos and
//! durability reports. Every JSON export opens with one run header
//! (`export_head`) and writes each list through
//! [`sim::report::json_array`]. Each standalone mode has one
//! `violations()` list, and the binary ends every mode in one tail: print
//! the report, write the JSON, exit 1 on violations, apply the baseline
//! gate.
//!
//! `--quick` scales the experiment down (fewer nodes/attributes/queries)
//! for smoke runs; the default is the paper's full §V configuration
//! (n = 2048, m = 200, k = 500, d = 8).
//!
//! Every artifact's quick-mode report is pinned by an FNV-1a digest of
//! its JSON in this crate's unit tests (`REPORT_DIGESTS`), and each export
//! writer by a digest of its output on a fixed fixture. A change that
//! moves a figure or a schema re-records the digests it moves and says
//! why; a refactor moves none.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod durability;
pub mod perf;
pub mod scale;

use grid_resource::QueryPlan;
use sim::experiments::{ablation, fig3, fig4, fig5, fig6, worstcase, Exec, Metric};
use sim::{BedCache, Report, SimConfig};
use std::path::PathBuf;

/// Which artifacts to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Figure 3(a): outlinks vs network size.
    Fig3a,
    /// Figures 3(b–d): directory-size distributions.
    Fig3Dirs,
    /// Figures 4(a,b): non-range query hops, and the hop distribution
    /// behind the arity-1 averages.
    Fig4,
    /// Figures 5(a,b): range-query visited nodes.
    Fig5,
    /// Figure 6(a): hops under churn.
    Fig6a,
    /// Figure 6(b): visited nodes under churn.
    Fig6b,
    /// Theorem 4.10 worst case.
    T410,
    /// Routed registration cost (information-maintenance overhead).
    Maintenance,
    /// Query-processing load balance (Theorem 4.6's bottleneck claim).
    LoadBalance,
    /// Directory-size distributions swept over network sizes.
    Fig3Sweep,
    /// Churn with *abrupt* failures instead of graceful departures
    /// (extension beyond the paper's §V.C).
    ChurnFail,
    /// Wall-clock latency replay through a per-hop delay model (extension).
    Latency,
    /// The ten theorems' closed forms at the configured parameters.
    Theorems,
    /// The ablation studies.
    Ablations,
}

impl Artifact {
    /// Every artifact, in presentation order.
    pub const ALL: [Artifact; 14] = [
        Artifact::Theorems,
        Artifact::Fig3a,
        Artifact::Fig3Dirs,
        Artifact::Fig3Sweep,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6a,
        Artifact::Fig6b,
        Artifact::ChurnFail,
        Artifact::Latency,
        Artifact::T410,
        Artifact::Maintenance,
        Artifact::LoadBalance,
        Artifact::Ablations,
    ];

    /// Stable machine-readable name, used as the CLI target and as the
    /// `name` field of the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Theorems => "theorems",
            Artifact::Fig3a => "fig3a",
            Artifact::Fig3Dirs => "fig3dirs",
            Artifact::Fig3Sweep => "fig3sweep",
            Artifact::Fig4 => "fig4",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6a => "fig6a",
            Artifact::Fig6b => "fig6b",
            Artifact::ChurnFail => "churnfail",
            Artifact::Latency => "latency",
            Artifact::T410 => "t410",
            Artifact::Maintenance => "maintenance",
            Artifact::LoadBalance => "loadbalance",
            Artifact::Ablations => "ablations",
        }
    }

    /// Parse a command-line target name.
    pub fn parse(s: &str) -> Option<Vec<Artifact>> {
        Some(match s {
            "fig3a" => vec![Artifact::Fig3a],
            "fig3" => vec![Artifact::Fig3a, Artifact::Fig3Dirs],
            "fig3bcd" | "fig3dirs" => vec![Artifact::Fig3Dirs],
            "fig4" => vec![Artifact::Fig4],
            "fig5" => vec![Artifact::Fig5],
            "fig6" => vec![Artifact::Fig6a, Artifact::Fig6b],
            "fig6a" => vec![Artifact::Fig6a],
            "fig6b" => vec![Artifact::Fig6b],
            "t410" => vec![Artifact::T410],
            "maintenance" => vec![Artifact::Maintenance],
            "churnfail" => vec![Artifact::ChurnFail],
            "latency" => vec![Artifact::Latency],
            "theorems" => vec![Artifact::Theorems],
            "loadbalance" => vec![Artifact::LoadBalance],
            "fig3sweep" => vec![Artifact::Fig3Sweep],
            "ablations" => vec![Artifact::Ablations],
            "all" => Artifact::ALL.to_vec(),
            _ => return None,
        })
    }
}

/// What one `repro` invocation runs: the figure artifacts, or exactly one
/// of the standalone sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Regenerate the named figure artifacts.
    #[default]
    Figures,
    /// The wall-clock perf kernels.
    Perf,
    /// The fault-injection chaos sweep.
    Chaos,
    /// The 1k → 1M scaling sweep.
    Scale,
    /// The replication/durability churn sweep.
    Durability,
}

impl Mode {
    /// The standalone mode a command-line target names, if it names one.
    fn standalone(s: &str) -> Option<Mode> {
        Some(match s {
            "perf" => Mode::Perf,
            "chaos" => Mode::Chaos,
            "scale" => Mode::Scale,
            "durability" => Mode::Durability,
            _ => return None,
        })
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproConfig {
    /// Scale the experiments down for a smoke run.
    pub quick: bool,
    /// Root seed.
    pub seed: u64,
    /// Worker threads per query batch (0 = one per available core).
    pub shards: usize,
    /// Write the machine-readable metrics export here.
    pub json: Option<PathBuf>,
    /// What to run: the figures, or one standalone sweep in their place.
    pub mode: Mode,
    /// Perf and scale modes: diff the run against this committed BENCH
    /// file and exit non-zero on a per-kernel wall-clock regression.
    pub baseline: Option<PathBuf>,
    /// Multi-attribute query plan for the query-driven figures (fig4,
    /// fig5): parallel (the paper's §III semantics, the default),
    /// sequential, or adaptive selective-first. The standalone sweeps
    /// (perf, chaos, scale, durability) run the parallel plan only and
    /// [`parse_args`] refuses any other alongside them.
    pub plan: QueryPlan,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0x1C99,
            shards: 0,
            json: None,
            mode: Mode::Figures,
            baseline: None,
            plan: QueryPlan::Parallel,
        }
    }
}

impl ReproConfig {
    fn sim(&self) -> SimConfig {
        let base = if self.quick { SimConfig::quick() } else { SimConfig::default() };
        SimConfig { seed: self.seed, ..base }
    }

    fn fig3a_dims(&self) -> Vec<u8> {
        if self.quick {
            vec![5, 6, 7]
        } else {
            vec![5, 6, 7, 8, 9, 10, 11]
        }
    }

    fn queries(&self) -> usize {
        if self.quick {
            100
        } else {
            1000
        }
    }

    fn churn_setup(&self) -> fig6::ChurnSetup {
        if self.quick {
            fig6::ChurnSetup::quick()
        } else {
            fig6::ChurnSetup::default()
        }
    }

    fn exec(&self) -> Exec {
        Exec { plan: self.plan, shards: self.shards }
    }
}

/// Run one artifact and build its structured report against `cache`:
/// every artifact that mounts the standard test bed shares one `Arc` build
/// per distinct configuration, and the churn sweeps clone cached
/// prototypes instead of rebuilding per (rate, system) cell.
pub fn run_artifact_report(a: Artifact, cfg: &ReproConfig, cache: &BedCache) -> Report {
    let sim_cfg = cfg.sim();
    match a {
        Artifact::Fig3a => fig3::fig3a(&cfg.fig3a_dims(), sim_cfg.attrs, cfg.seed).report(),
        Artifact::Fig3Dirs => {
            let bed = cache.bed(sim_cfg);
            fig3::fig3_directories(&bed).report()
        }
        Artifact::Fig4 => {
            let bed = cache.bed(sim_cfg);
            // paper: 100 nodes × 10 queries each
            let (origins, per) = if cfg.quick { (20, 5) } else { (100, 10) };
            fig4::fig4(&bed, 1..=10, origins, per, cfg.exec()).report()
        }
        Artifact::Fig5 => {
            let bed = cache.bed(sim_cfg);
            fig5::fig5(&bed, 1..=10, cfg.queries(), cfg.exec()).report()
        }
        Artifact::Fig6a => fig6::fig6(&sim_cfg, &cfg.churn_setup(), Metric::Hops, cache).report(),
        Artifact::Fig6b => {
            fig6::fig6(&sim_cfg, &cfg.churn_setup(), Metric::Visited, cache).report()
        }
        Artifact::T410 => {
            let bed = cache.bed(sim_cfg);
            let queries = if cfg.quick { 5 } else { 20 };
            worstcase::worstcase(&bed, 1, queries, cfg.shards).report()
        }
        Artifact::ChurnFail => {
            // range queries return many matches, so lost directory entries
            // are actually observable as stale answers
            let setup = fig6::ChurnSetup { graceful: false, ..cfg.churn_setup() };
            let mut rep = fig6::fig6(&sim_cfg, &setup, Metric::Visited, cache).report();
            rep.note(
                "(extension: departures are abrupt failures; stale links and lost \
                 directory entries persist until the next maintenance round)",
            );
            rep
        }
        Artifact::Theorems => theorem_report(&sim_cfg.params()),
        Artifact::Latency => {
            let bed = cache.bed(sim_cfg);
            let queries = if cfg.quick { 60 } else { 300 };
            let model = dht_core::LatencyModel::wan();
            sim::experiments::latency::latency(&bed, queries, 3, model, cfg.shards).report()
        }
        Artifact::Maintenance => {
            sim::experiments::maintenance::registration_cost(&sim_cfg).report()
        }
        Artifact::LoadBalance => {
            let bed = cache.bed(sim_cfg);
            let queries = cfg.queries();
            sim::experiments::maintenance::query_load_balance(&bed, queries, 3, cfg.shards).report()
        }
        Artifact::Fig3Sweep => {
            let dims: &[u8] = if cfg.quick { &[5, 6] } else { &[6, 7, 8, 9] };
            let rows = fig3::fig3_directory_sweep(dims, &sim_cfg);
            fig3::sweep_report(&rows, &sim_cfg)
        }
        Artifact::Ablations => {
            let (queries, shards) = (cfg.queries(), cfg.shards);
            let mut rep = Report::new();
            rep.append(ablation::ablate_placement(&sim_cfg, queries, shards).report());
            rep.append(ablation::ablate_value_skew(&sim_cfg).report());
            let (n, lk) = if cfg.quick { (300, 300) } else { (2048, 2000) };
            rep.append(ablation::ablate_succ_list(n, 0.15, lk, cfg.seed).report());
            let pop_queries = if cfg.quick { 150 } else { 600 };
            rep.append(ablation::ablate_attr_popularity(&sim_cfg, pop_queries, shards).report());
            rep.append(ablation::ablate_query_plan(&sim_cfg, queries, 4, shards).report());
            rep.append(ablation::ablate_flat_lorm(&sim_cfg, queries, shards).report());
            let dims: &[u8] = if cfg.quick { &[5, 6, 7] } else { &[5, 6, 7, 8, 9, 10] };
            rep.append(ablation::ablate_dimension(dims, lk, cfg.seed).report());
            rep
        }
    }
}

/// The ten theorems' closed forms at the given parameters — the paper's
/// §IV as one structured report.
pub fn theorem_report(p: &analysis::Params) -> Report {
    use analysis as th;
    use analysis::System;
    use sim::Table;
    let mut t = Table::new(
        format!(
            "Theorems 4.1-4.10 at n = {}, m = {}, k = {}, d = {} (log2 n = {:.0})",
            p.n,
            p.m,
            p.k,
            p.d,
            p.log2_n()
        ),
        &["theorem", "claim", "value"],
    );
    let mut row = |a: &str, b: &str, v: f64| {
        t.row(vec![a.to_string(), b.to_string(), Table::fmt_f(v)]);
    };
    row("4.1", "LORM structure overhead >= m x below multi-DHT", th::t41_structure_factor(p));
    row("4.2", "MAAN total information multiplier", th::t42_maan_total_factor());
    row("4.3", "MAAN/LORM directory percentiles: d(1 + m/n)", th::t43_maan_over_lorm(p));
    row("4.4", "SWORD/LORM directory percentiles: d", th::t44_sword_over_lorm(p));
    row("4.5", "Mercury/LORM balance: n/(d m)", th::t45_mercury_balance_factor(p));
    row("4.7", "MAAN/LORM non-range hops: log2(n)/d", th::t47_maan_over_lorm_hops(p));
    row("4.8", "MAAN/(Mercury,SWORD) non-range hops", th::t48_maan_over_single_lookup());
    for s in System::ALL {
        row("4.9", &format!("avg range visited/attr, {}", s.name()), th::range_visited(p, 1, s));
    }
    for s in System::ALL {
        row(
            "4.10",
            &format!("worst-case contacted/attr, {}", s.name()),
            th::worstcase_range_contacted(p, 1, s),
        );
    }
    row("4.10", "guaranteed LORM saving (>= n per attr)", th::t410_min_saving(p, 1));
    let mut rep = Report::new();
    rep.table(t);
    rep.note("(4.6 is the qualitative balance ordering implied by 4.3-4.5)");
    rep
}

/// Parse CLI arguments into a run plan. Returns `Err` with a usage string
/// on bad input.
pub fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(ReproConfig, Vec<Artifact>), String> {
    const USAGE: &str = "usage: repro [--quick] [--seed=N] \
                         [--shards=N (0: one worker per core, the default)] \
                         [--json <path>] [--baseline <BENCH.json>] \
                         [--plan=parallel|sequential|adaptive] \
                         [perf | chaos | scale | durability | theorems fig3a \
                          fig3bcd fig3sweep fig4 fig5 fig6a fig6b t410 \
                          maintenance churnfail latency loadbalance \
                          ablations | all]";
    let mut cfg = ReproConfig::default();
    let mut artifacts: Vec<Artifact> = Vec::new();
    // The standalone mode named so far, with the word that named it.
    let mut standalone: Option<(Mode, String)> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "-q" => cfg.quick = true,
            "--json" => {
                let path = args.next().ok_or(format!("--json needs a path\n{USAGE}"))?;
                cfg.json = Some(PathBuf::from(path));
            }
            s if s.starts_with("--json=") => {
                cfg.json = Some(PathBuf::from(&s["--json=".len()..]));
            }
            "--baseline" => {
                let path = args.next().ok_or(format!("--baseline needs a path\n{USAGE}"))?;
                cfg.baseline = Some(PathBuf::from(path));
            }
            s if s.starts_with("--baseline=") => {
                cfg.baseline = Some(PathBuf::from(&s["--baseline=".len()..]));
            }
            s if s.starts_with("--seed=") => {
                cfg.seed = s["--seed=".len()..]
                    .parse()
                    .map_err(|_| format!("bad seed in {s:?}\n{USAGE}"))?;
            }
            s if s.starts_with("--shards=") => {
                cfg.shards = s["--shards=".len()..]
                    .parse()
                    .map_err(|_| format!("bad shard count in {s:?}\n{USAGE}"))?;
            }
            s if s.starts_with("--plan=") => {
                cfg.plan = QueryPlan::parse(&s["--plan=".len()..])
                    .ok_or(format!("bad plan in {s:?} (parallel|sequential|adaptive)\n{USAGE}"))?;
            }
            s => match (Mode::standalone(s), Artifact::parse(s)) {
                (Some(mode), _) => match &standalone {
                    Some((prev, name)) if *prev != mode => {
                        return Err(format!(
                            "{name} and {s} are separate modes: run one at a time\n{USAGE}"
                        ));
                    }
                    _ => standalone = Some((mode, s.to_owned())),
                },
                (None, Some(mut v)) => artifacts.append(&mut v),
                (None, None) => return Err(format!("unknown target {s:?}\n{USAGE}")),
            },
        }
    }
    // A standalone sweep runs alone and under the parallel plan only:
    // refuse whatever it would silently ignore.
    cfg.mode = match standalone {
        None => Mode::Figures,
        Some((_, name)) if !artifacts.is_empty() => {
            return Err(format!(
                "{name} is a mode of its own and cannot be combined with artifact names\n{USAGE}"
            ));
        }
        Some((_, name)) if cfg.plan != QueryPlan::Parallel => {
            return Err(format!(
                "--plan={} cannot be combined with {name}, which runs the parallel plan only\n{USAGE}",
                cfg.plan.name()
            ));
        }
        Some((mode, _)) => mode,
    };
    if artifacts.is_empty() {
        artifacts = Artifact::ALL.to_vec();
    }
    artifacts.dedup();
    Ok((cfg, artifacts))
}

/// One completed artifact run, ready for the JSON export.
#[derive(Debug, Clone)]
pub struct ArtifactRun {
    /// The artifact regenerated.
    pub artifact: Artifact,
    /// Its structured report.
    pub report: Report,
    /// Wall-clock milliseconds the run took.
    pub elapsed_ms: f64,
}

/// The head every `repro` export opens with: the `schema` tag, then the
/// run header inside `config` — `quick`, `seed`, `shards` and, when `bed`
/// is set, the standard bed's `n`, `m`, `k`, `d` (the scale sweep sizes
/// its own beds). The caller appends its own config fields and closes
/// `config`.
pub(crate) fn export_head(schema: &str, cfg: &ReproConfig, bed: bool) -> String {
    use sim::report::json_str;
    let mut out = format!(
        "{{\"schema\":{},\"config\":{{\"quick\":{},\"seed\":{},\"shards\":{}",
        json_str(schema),
        cfg.quick,
        cfg.seed,
        cfg.shards
    );
    if bed {
        let p = cfg.sim().params();
        out.push_str(&format!(",\"n\":{},\"m\":{},\"k\":{},\"d\":{}", p.n, p.m, p.k, p.d));
    }
    out
}

/// Serialize a full repro run against the stable `lorm-repro/bench-v1`
/// schema (documented in docs/SCHEMAS.md): the run header plus the query
/// plan, then one object per artifact with its tables, full-precision
/// summaries, and notes.
pub fn render_json(cfg: &ReproConfig, runs: &[ArtifactRun]) -> String {
    use sim::report::{json_array, json_num, json_str};
    let artifacts = runs.iter().map(|r| {
        // splice the report object's fields into this artifact object
        format!(
            "{{\"name\":{},\"elapsed_ms\":{},{}",
            json_str(r.artifact.name()),
            json_num(r.elapsed_ms),
            &r.report.to_json()[1..]
        )
    });
    format!(
        "{},\"plan\":{}}},\"artifacts\":{}}}",
        export_head("lorm-repro/bench-v1", cfg, true),
        json_str(cfg.plan.name()),
        json_array(artifacts)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_to_all() {
        let (cfg, arts) = parse_args(Vec::<String>::new()).unwrap();
        assert!(!cfg.quick);
        assert_eq!(arts.len(), Artifact::ALL.len());
    }

    #[test]
    fn parse_quick_and_targets() {
        let (cfg, arts) = parse_args(["--quick".into(), "fig4".into(), "t410".into()]).unwrap();
        assert!(cfg.quick);
        assert_eq!(arts, vec![Artifact::Fig4, Artifact::T410]);
    }

    #[test]
    fn parse_seed() {
        let (cfg, _) = parse_args(["--seed=42".into()]).unwrap();
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_args(["fig9".into()]).is_err());
        assert!(parse_args(["--seed=x".into()]).is_err());
    }

    #[test]
    fn fig3_group_expands() {
        let (_, arts) = parse_args(["fig3".into()]).unwrap();
        assert_eq!(arts, vec![Artifact::Fig3a, Artifact::Fig3Dirs]);
    }

    #[test]
    fn quick_fig3a_renders_table() {
        // trim the sweep further for the unit test
        let out = fig3::fig3a(&[5], 8, 7).report().to_string();
        assert!(out.contains("Figure 3(a)"));
        assert!(out.contains("Mercury"));
    }

    #[test]
    fn quick_t410_renders_table() {
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let out = run_artifact_report(Artifact::T410, &cfg, &BedCache::new()).to_string();
        assert!(out.contains("Theorem 4.10"), "got: {out}");
        assert!(out.contains("LORM"));
    }

    /// The FNV-1a fold every digest pin in this crate uses: of a report
    /// here, of each export writer's output on a fixed fixture in the
    /// `chaos`, `durability`, `perf` and `scale` tests.
    pub(crate) fn fnv1a(s: &str) -> u64 {
        s.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// FNV-1a digest of each artifact's `Report::to_json()` at quick
    /// scale, seed 3, one shard, in [`Artifact::ALL`] order. Recorded on the commit
    /// before this table existed, by `fnv1a`.
    /// These are report goldens: a change that moves a figure re-records
    /// the digest it moves and says why in its commit message; a
    /// refactor leaves every one of them alone.
    const REPORT_DIGESTS: [(&str, u64); 14] = [
        ("theorems", 0xf44a_cdee_513e_69bf),
        ("fig3a", 0x2435_2011_7d65_7b0e),
        ("fig3dirs", 0xc0e5_6a4a_9ea3_efe1),
        ("fig3sweep", 0x0f01_80b0_0382_b29e),
        ("fig4", 0x1bba_c648_d5d4_6b32),
        ("fig5", 0x6f0c_a0ec_e2c5_830e),
        ("fig6a", 0x0c56_4f88_ee5a_e9bf),
        ("fig6b", 0x6b2e_ebef_5db4_791b),
        ("churnfail", 0xc55d_8fdc_de8f_025f),
        ("latency", 0x63ea_5301_b994_ec34),
        ("t410", 0x9c23_f874_1bca_6b6a),
        ("maintenance", 0x58f9_1be1_0dcf_9d41),
        ("loadbalance", 0xb340_6038_bb04_c410),
        ("ablations", 0x5d63_95ec_b54c_cb10),
    ];

    #[test]
    fn every_artifact_runs_end_to_end_in_quick_mode() {
        // The full-scale run is recorded in EXPERIMENTS.md; this guards
        // that every artifact stays runnable, renders non-empty tables,
        // and renders the recorded bytes. Quick mode, tiny batches, one
        // shard.
        let cfg = ReproConfig { quick: true, seed: 3, shards: 1, ..ReproConfig::default() };
        let cache = BedCache::new();
        for (a, (name, digest)) in Artifact::ALL.into_iter().zip(REPORT_DIGESTS) {
            let rep = run_artifact_report(a, &cfg, &cache);
            let out = rep.to_string();
            assert!(out.contains('|'), "{a:?} produced no table:\n{out}");
            assert!(out.contains("##"), "{a:?} produced no title");
            assert!(!rep.tables().is_empty(), "{a:?} report has no tables");
            for t in rep.tables() {
                assert!(!t.header().is_empty() && !t.rows().is_empty(), "{a:?}: empty table");
            }
            let j = rep.to_json();
            assert!(j.starts_with("{\"tables\":["), "{a:?} bad json head: {j}");
            assert_eq!((a.name(), fnv1a(&j)), (name, digest), "{a:?} report moved");
        }
    }

    #[test]
    fn batched_reports_are_identical_at_one_and_three_shards() {
        // The artifacts whose query batches go through the executor's
        // worker split render, at three shards, the bytes REPORT_DIGESTS
        // pins at one.
        let cfg = ReproConfig { quick: true, seed: 3, shards: 3, ..ReproConfig::default() };
        let cache = BedCache::new();
        for a in [
            Artifact::Fig4,
            Artifact::Latency,
            Artifact::T410,
            Artifact::LoadBalance,
            Artifact::Ablations,
        ] {
            let pin = REPORT_DIGESTS.iter().find(|(name, _)| *name == a.name()).map(|p| p.1);
            let j = run_artifact_report(a, &cfg, &cache).to_json();
            assert_eq!(Some(fnv1a(&j)), pin, "{a:?} moved with the shard count");
        }
    }

    #[test]
    fn planned_figures_render_the_recorded_reports() {
        // fig4 and fig5 are the two artifacts that read `--plan`; their
        // quick reports at seed 3 under the two non-default plans, pinned
        // like REPORT_DIGESTS.
        let cache = BedCache::new();
        for (plan, a, digest) in [
            (QueryPlan::Sequential, Artifact::Fig4, 0xafda_6be8_19a3_ad97),
            (QueryPlan::Sequential, Artifact::Fig5, 0xd19b_f287_500f_c7f4),
            (QueryPlan::Adaptive, Artifact::Fig4, 0x1f38_7cdf_2437_c332),
            (QueryPlan::Adaptive, Artifact::Fig5, 0x1c69_ef87_3a63_02fd),
        ] {
            let cfg = ReproConfig { quick: true, seed: 3, plan, ..ReproConfig::default() };
            let j = run_artifact_report(a, &cfg, &cache).to_json();
            assert_eq!(fnv1a(&j), digest, "{a:?} under {plan:?} moved");
        }
    }

    #[test]
    fn theorem_table_shows_papers_headline_numbers() {
        let out = theorem_report(&analysis::Params::paper()).to_string();
        // §V.A quotes 8.78 (T4.3) and 1.28 (T4.5); §V.B quotes 513/514/3/1.
        assert!(out.contains("8.78"), "{out}");
        assert!(out.contains("1.28"));
        assert!(out.contains("513.0"));
        assert!(out.contains("514.0"));
        assert!(out.contains("Theorems 4.1-4.10 at n = 2048"));
    }

    #[test]
    fn fig6_group_expands_to_both_metrics() {
        let (_, arts) = parse_args(["fig6".into()]).unwrap();
        assert_eq!(arts, vec![Artifact::Fig6a, Artifact::Fig6b]);
        let (_, all) = parse_args(["all".into()]).unwrap();
        assert_eq!(all.len(), Artifact::ALL.len());
    }

    #[test]
    fn parse_json_flag_both_forms() {
        // space-separated form
        let (cfg, arts) =
            parse_args(["--quick".into(), "fig4".into(), "--json".into(), "out.json".into()])
                .unwrap();
        assert_eq!(cfg.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(arts, vec![Artifact::Fig4]);
        // = form
        let (cfg, _) = parse_args(["--json=metrics.json".into()]).unwrap();
        assert_eq!(cfg.json.as_deref(), Some(std::path::Path::new("metrics.json")));
        // missing path is an error
        assert!(parse_args(["--json".into()]).is_err());
    }

    #[test]
    fn parse_perf_target() {
        let (cfg, _) = parse_args(["--quick".into(), "perf".into()]).unwrap();
        assert_eq!(cfg.mode, Mode::Perf);
        assert!(cfg.quick);
        let (cfg, _) = parse_args(["fig4".into()]).unwrap();
        assert_eq!(cfg.mode, Mode::Figures);
    }

    #[test]
    fn parse_chaos_target() {
        let (cfg, _) = parse_args(["--quick".into(), "chaos".into()]).unwrap();
        assert_eq!(cfg.mode, Mode::Chaos);
    }

    #[test]
    fn parse_scale_target() {
        let (cfg, _) = parse_args(["--quick".into(), "scale".into()]).unwrap();
        assert_eq!(cfg.mode, Mode::Scale);
    }

    #[test]
    fn parse_durability_target() {
        let (cfg, _) = parse_args(["--quick".into(), "durability".into()]).unwrap();
        assert_eq!(cfg.mode, Mode::Durability);
    }

    #[test]
    fn parse_plan_flag() {
        let (cfg, _) = parse_args(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.plan, QueryPlan::Parallel, "default is the paper's plan");
        for (s, plan) in [
            ("parallel", QueryPlan::Parallel),
            ("sequential", QueryPlan::Sequential),
            ("adaptive", QueryPlan::Adaptive),
        ] {
            let (cfg, _) = parse_args([format!("--plan={s}")]).unwrap();
            assert_eq!(cfg.plan, plan);
        }
        assert!(parse_args(["--plan=greedy".into()]).is_err());
    }

    #[test]
    fn parse_rejects_a_plan_the_pipeline_cannot_honour() {
        for mode in ["perf", "chaos", "scale", "durability"] {
            for (plan, accepted) in [("parallel", true), ("sequential", false), ("adaptive", false)]
            {
                // flag order must not matter
                for args in [
                    [format!("--plan={plan}"), mode.into()],
                    [mode.into(), format!("--plan={plan}")],
                ] {
                    match parse_args(args) {
                        Ok(_) => assert!(accepted, "{mode} must refuse --plan={plan}"),
                        Err(msg) => {
                            assert!(!accepted, "{mode} must accept --plan={plan}: {msg}");
                            assert!(msg.contains(mode) && msg.contains(plan), "{msg}");
                            assert!(msg.contains("usage: repro"), "{msg}");
                        }
                    }
                }
            }
        }
        // The figure pipelines keep accepting every plan.
        for plan in ["parallel", "sequential", "adaptive"] {
            assert!(parse_args([format!("--plan={plan}"), "fig4".into(), "t410".into()]).is_ok());
        }
    }

    #[test]
    fn planned_fig5_runs_and_ships_less_under_adaptive() {
        let cfg = ReproConfig {
            quick: true,
            seed: 3,
            plan: QueryPlan::Adaptive,
            ..ReproConfig::default()
        };
        let cache = BedCache::new();
        let adaptive = run_artifact_report(Artifact::Fig5, &cfg, &cache);
        let parallel = run_artifact_report(
            Artifact::Fig5,
            &ReproConfig { plan: QueryPlan::Parallel, ..cfg.clone() },
            &cache,
        );
        // adaptive short-circuits, so total visited nodes can only shrink
        let visited = |rep: &Report| rep.summaries().iter().map(|(_, s)| s.total()).sum::<f64>();
        assert!(visited(&adaptive) <= visited(&parallel) + 1e-9);
    }

    #[test]
    fn parse_shards_flag() {
        let (cfg, _) = parse_args(["--shards=4".into()]).unwrap();
        assert_eq!(cfg.shards, 4);
        assert!(parse_args(["--shards=x".into()]).is_err());
        let (cfg, _) = parse_args(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.shards, 0, "default auto-detects");
    }

    #[test]
    fn parse_args_accepts_or_rejects_every_invocation_shape() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        // Malformed: rejected with the usage line, never silently narrowed.
        for line in [
            "fig9",
            "--frobnicate",
            "--json",
            "fig4 --baseline",
            "--seed=x",
            "--seed=",
            "--shards=many",
            "--shards=-1",
            "--plan=greedy",
            "--no-cache",
            "perf --plan=adaptive",
            "--plan=adaptive chaos",
            "scale --plan=adaptive",
            "durability --plan=adaptive",
            "perf chaos",
            "scale --quick durability",
            "chaos fig4",
            "fig5 t410 perf",
            "durability all",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("usage: repro"), "{line}: {err}");
        }
        // Well-formed: every field lands where it was aimed.
        let d = ReproConfig::default;
        let all = &Artifact::ALL[..];
        let cases: [(&str, ReproConfig, &[Artifact]); 10] = [
            ("", d(), all),
            ("all", d(), all),
            (
                "-q fig4 fig4 t410 --seed=9",
                ReproConfig { quick: true, seed: 9, ..d() },
                &[Artifact::Fig4, Artifact::T410],
            ),
            (
                "fig5 --plan=adaptive --shards=3",
                ReproConfig { plan: QueryPlan::Adaptive, shards: 3, ..d() },
                &[Artifact::Fig5],
            ),
            ("perf --quick", ReproConfig { mode: Mode::Perf, quick: true, ..d() }, all),
            ("perf perf", ReproConfig { mode: Mode::Perf, ..d() }, all),
            ("chaos --plan=parallel", ReproConfig { mode: Mode::Chaos, ..d() }, all),
            ("--shards=1 scale", ReproConfig { mode: Mode::Scale, shards: 1, ..d() }, all),
            ("durability --shards=0", ReproConfig { mode: Mode::Durability, ..d() }, all),
            (
                "perf --json out.json --baseline=BENCH.json",
                ReproConfig {
                    mode: Mode::Perf,
                    json: Some("out.json".into()),
                    baseline: Some("BENCH.json".into()),
                    ..d()
                },
                all,
            ),
        ];
        for (line, want, arts) in cases {
            let (cfg, got) = parse(line).expect(line);
            assert_eq!((cfg, &got[..]), (want, arts), "{line}");
        }
    }

    #[test]
    fn artifact_names_are_stable_and_parseable() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::parse(a.name()), Some(vec![a]), "{a:?}");
        }
    }

    #[test]
    fn render_json_emits_schema_config_and_artifacts() {
        let cfg = ReproConfig { quick: true, seed: 3, ..ReproConfig::default() };
        let runs = vec![
            ArtifactRun {
                artifact: Artifact::Theorems,
                report: theorem_report(&cfg.sim().params()),
                elapsed_ms: 1.5,
            },
            ArtifactRun {
                artifact: Artifact::T410,
                report: run_artifact_report(Artifact::T410, &cfg, &BedCache::new()),
                elapsed_ms: 20.0,
            },
        ];
        let j = render_json(&cfg, &runs);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/bench-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"quick\":true"));
        assert!(j.contains("\"seed\":3"));
        assert!(j.contains("\"plan\":\"parallel\""));
        assert!(j.contains("\"name\":\"theorems\",\"elapsed_ms\":1.5,\"tables\":["));
        assert!(j.contains("\"name\":\"t410\""));
        // the t410 report carries per-system summaries with failure counts
        assert!(j.contains("\"label\":\"LORM\""), "{j}");
        assert!(j.contains("\"failures\":0"));
        // balanced braces/brackets (outside strings there are no quotes to
        // confuse this rough check: table cells never contain braces)
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes, "unbalanced JSON object braces");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.ends_with("]}"));
        assert_eq!(fnv1a(&j), 0x7078_c7b9_47eb_e83e, "bench-v1 writer moved");
    }
}
