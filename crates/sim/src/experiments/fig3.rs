//! Figure 3 — maintenance overhead.
//!
//! * **3(a)**: average outlinks per node vs network size, for Mercury
//!   (m Chord hubs), the Theorem 4.1 bound "Analysis>LORM" (= Mercury/m),
//!   and LORM (constant-degree Cycloid).
//! * **3(b)**: directory-size avg/p1/p99 — MAAN vs LORM vs the analysis
//!   derived from MAAN (Theorems 4.2/4.3).
//! * **3(c)**: SWORD vs LORM vs analysis (Theorems 4.2/4.4).
//! * **3(d)**: Mercury vs LORM vs analysis (Theorems 4.2/4.5).

use crate::experiments::fan_out;
use crate::report::Report;
use crate::setup::{SimConfig, TestBed};
use crate::table::Table;
use analysis::{self as th, System};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig};
use dht_core::Overlay;

/// One network size in the Figure 3(a) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3aRow {
    /// Cycloid dimension used for this size.
    pub dimension: u8,
    /// Network size `n = d·2^d`.
    pub n: usize,
    /// Measured average outlinks per physical node in Mercury (`m` hubs).
    pub mercury: f64,
    /// Theorem 4.1's bound: Mercury divided by `m` ("Analysis>LORM").
    pub analysis_gt_lorm: f64,
    /// Measured average outlinks per node in LORM.
    pub lorm: f64,
}

/// The Figure 3(a) series.
#[derive(Debug, Clone)]
pub struct Fig3a {
    /// One row per swept network size.
    pub rows: Vec<Fig3aRow>,
    /// Number of attributes (= Mercury hubs) used.
    pub attrs: usize,
}

/// Run the Figure 3(a) sweep. Mercury's `m × n` node state would not fit
/// in memory at the larger sizes, so hubs are built and measured a few at
/// a time (identical protocol state, streamed accumulation across worker
/// threads — hubs are independent).
pub fn fig3a(dimensions: &[u8], attrs: usize, seed: u64) -> Fig3a {
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(8);
    let mut rows = Vec::with_capacity(dimensions.len());
    for &d in dimensions {
        let n = d as usize * (1usize << d);
        // Mercury: sum of per-hub average outlinks over m independent hubs.
        let hub_avg = |hub: usize| {
            let net = Chord::build(
                n,
                ChordConfig {
                    seed: seed ^ (hub as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    ..ChordConfig::default()
                },
            );
            let total: usize = net.live_nodes().iter().map(|i| net.outlinks(i).unwrap_or(0)).sum();
            total as f64 / n as f64
        };
        let mercury_avg: f64 =
            fan_out(0..workers, |w| (w..attrs).step_by(workers).map(hub_avg).sum::<f64>())
                .into_iter()
                .sum();
        // LORM: one Cycloid of the same size.
        let cy = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let lorm_total: usize = cy.live_nodes().iter().map(|i| cy.outlinks(i).unwrap_or(0)).sum();
        let lorm = lorm_total as f64 / n as f64;
        rows.push(Fig3aRow {
            dimension: d,
            n,
            mercury: mercury_avg,
            analysis_gt_lorm: mercury_avg / attrs as f64,
            lorm,
        });
    }
    Fig3a { rows, attrs }
}

impl Fig3a {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!("Figure 3(a): outlinks per node vs network size (m = {})", self.attrs),
            &["n", "d", "Mercury", "Analysis>LORM", "LORM"],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                r.dimension.to_string(),
                Table::fmt_f(r.mercury),
                Table::fmt_f(r.analysis_gt_lorm),
                Table::fmt_f(r.lorm),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        rep
    }
}

/// One measured (or derived) directory-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DirRow {
    /// Series label as it appears in the figure legend.
    pub label: String,
    /// Average directory size per node.
    pub avg: f64,
    /// 1st percentile.
    pub p1: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Figures 3(b), 3(c), 3(d): directory-size distributions of all four
/// systems plus the three analysis overlays.
#[derive(Debug, Clone)]
pub struct Fig3Directories {
    /// Measured rows for LORM, Mercury, SWORD, MAAN.
    pub measured: Vec<DirRow>,
    /// Analysis overlays: Analysis-LORM (from MAAN), (from SWORD), (from
    /// Mercury) — one per sub-figure.
    pub analysis: Vec<DirRow>,
    /// The configuration measured.
    pub cfg: SimConfig,
}

/// Measure every system's directory distribution and derive the paper's
/// analysis overlays.
pub fn fig3_directories(bed: &TestBed) -> Fig3Directories {
    let p = bed.cfg.params();
    let measured: Vec<DirRow> = System::ALL
        .iter()
        .map(|&s| {
            let loads = bed.system(s).directory_loads();
            DirRow { label: s.name().into(), avg: loads.mean(), p1: loads.p1(), p99: loads.p99() }
        })
        .collect();
    let get = |s: System| measured.iter().find(|r| r.label == s.name()).expect("measured");

    let maan = get(System::Maan);
    let sword = get(System::Sword);
    let mercury = get(System::Mercury);
    let analysis = vec![
        // Fig 3(b): from MAAN — avg via T4.2 (÷2), percentiles via T4.3.
        DirRow {
            label: "Analysis-LORM (from MAAN, T4.2/T4.3)".into(),
            avg: maan.avg / th::t42_maan_total_factor(),
            p1: maan.p1 / th::t43_maan_over_lorm(&p),
            p99: maan.p99 / th::t43_maan_over_lorm(&p),
        },
        // Fig 3(c): from SWORD — equal avg (T4.2), percentiles ÷ d (T4.4).
        DirRow {
            label: "Analysis-LORM (from SWORD, T4.2/T4.4)".into(),
            avg: sword.avg,
            p1: sword.p1 / th::t44_sword_over_lorm(&p),
            p99: sword.p99 / th::t44_sword_over_lorm(&p),
        },
        // Fig 3(d): from Mercury — equal avg, percentiles spread by the
        // balance factor n/(d·m) (T4.5): LORM's p1 sits below Mercury's,
        // its p99 above.
        DirRow {
            label: "Analysis-LORM (from Mercury, T4.2/T4.5)".into(),
            avg: mercury.avg,
            p1: mercury.p1 / th::t45_mercury_balance_factor(&p),
            p99: mercury.p99 * th::t45_mercury_balance_factor(&p),
        },
    ];
    Fig3Directories { measured, analysis, cfg: bed.cfg }
}

impl Fig3Directories {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!(
                "Figure 3(b-d): directory size per node (n = {}, m = {}, k = {})",
                self.cfg.nodes, self.cfg.attrs, self.cfg.values
            ),
            &["series", "avg", "p1", "p99"],
        );
        for r in self.measured.iter().chain(self.analysis.iter()) {
            t.row(vec![
                r.label.clone(),
                Table::fmt_f(r.avg),
                Table::fmt_f(r.p1),
                Table::fmt_f(r.p99),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        rep
    }
}

/// One (size, system) cell of the directory-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Cycloid dimension for this size.
    pub dimension: u8,
    /// Network size `n = d·2^d`.
    pub n: usize,
    /// The measured distribution of each system at this size.
    pub dists: Vec<DirRow>,
}

/// Figure 3(b–d) as the paper frames it — "versus network size": the
/// directory-size distribution of every system at a sweep of full
/// Cycloid populations. Systems are built one at a time per size so
/// Mercury's `m × n` state never has to coexist with the others.
pub fn fig3_directory_sweep(dimensions: &[u8], cfg: &SimConfig) -> Vec<SweepRow> {
    let mut rows = Vec::with_capacity(dimensions.len());
    for &d in dimensions {
        let n = d as usize * (1usize << d);
        let size_cfg = SimConfig { nodes: n, dimension: d, ..*cfg };
        let seeds = dht_core::SeedSpawner::new(size_cfg.seed);
        let workload = grid_resource::Workload::generate(
            size_cfg.workload_config(),
            &mut seeds.labelled(0xA0),
        )
        .expect("valid workload config");
        let mut dists = Vec::with_capacity(System::ALL.len());
        for s in System::ALL {
            let sys = crate::setup::build_system(s, &workload, &size_cfg);
            let loads = sys.directory_loads();
            dists.push(DirRow {
                label: s.name().into(),
                avg: loads.mean(),
                p1: loads.p1(),
                p99: loads.p99(),
            });
            // `sys` drops here before the next system is built
        }
        rows.push(SweepRow { dimension: d, n, dists });
    }
    rows
}

/// Build the sweep report (one table, rows = size × system).
pub fn sweep_report(rows: &[SweepRow], cfg: &SimConfig) -> Report {
    let mut t = Table::new(
        format!(
            "Figure 3(b-d) sweep: directory size vs network size (m = {}, k = {})",
            cfg.attrs, cfg.values
        ),
        &["n", "system", "avg", "p1", "p99"],
    );
    for r in rows {
        for dist in &r.dists {
            t.row(vec![
                r.n.to_string(),
                dist.label.clone(),
                Table::fmt_f(dist.avg),
                Table::fmt_f(dist.p1),
                Table::fmt_f(dist.p99),
            ]);
        }
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_small_sweep_shows_the_gap() {
        // Tiny version: 10 attributes, d = 5 and 6.
        let fig = fig3a(&[5, 6], 10, 0xF3A);
        assert_eq!(fig.rows.len(), 2);
        for r in &fig.rows {
            // Mercury pays ~m× what LORM pays (Theorem 4.1)
            assert!(r.mercury > 5.0 * r.lorm, "mercury {} vs lorm {}", r.mercury, r.lorm);
            // the bound holds: LORM is at or below Mercury/m
            assert!(r.lorm <= r.analysis_gt_lorm + 1.0, "{} vs {}", r.lorm, r.analysis_gt_lorm);
        }
        // Mercury grows with n; LORM stays constant
        assert!(fig.rows[1].mercury > fig.rows[0].mercury);
        assert!((fig.rows[1].lorm - fig.rows[0].lorm).abs() < 2.0);
    }

    #[test]
    fn fig3_directories_reproduce_theorem_shapes() {
        // Full population (2048 = 8·2^8) so LORM clusters have all d
        // members — sparse clusters degenerate towards SWORD.
        let cfg = SimConfig { nodes: 2048, attrs: 40, values: 100, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig3_directories(&bed);
        let get = |label: &str| fig.measured.iter().find(|r| r.label == label).expect("row");
        let lorm = get("LORM");
        let maan = get("MAAN");
        let sword = get("SWORD");
        let mercury = get("Mercury");
        // T4.2: MAAN's average is ~2x everyone else's.
        assert!((maan.avg / lorm.avg - 2.0).abs() < 0.2, "{} vs {}", maan.avg, lorm.avg);
        assert!((sword.avg - lorm.avg).abs() < 2.0);
        assert!((mercury.avg - lorm.avg).abs() < 2.0);
        // T4.4/T4.6: SWORD concentrates — its p99 far exceeds LORM's.
        assert!(sword.p99 > 2.0 * lorm.p99, "sword p99 {} lorm p99 {}", sword.p99, lorm.p99);
        // T4.5/T4.6: Mercury is the most balanced (lowest p99).
        assert!(mercury.p99 <= lorm.p99, "mercury {} lorm {}", mercury.p99, lorm.p99);
        // display renders all seven series
        let s = fig.report().to_string();
        assert_eq!(s.lines().filter(|l| l.starts_with('|')).count(), 2 + 7);
    }
    #[test]
    fn directory_sweep_keeps_theorem_shapes_across_sizes() {
        let cfg = SimConfig { attrs: 20, values: 50, ..SimConfig::default() };
        let rows = fig3_directory_sweep(&[5, 6], &cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let get = |n: &str| r.dists.iter().find(|d| d.label == n).expect("dist");
            assert!((get("MAAN").avg / get("LORM").avg - 2.0).abs() < 0.3, "n={}", r.n);
            assert!(get("SWORD").p99 >= get("LORM").p99, "n={}", r.n);
        }
        // averages shrink as n grows (same mk over more nodes)
        assert!(rows[1].dists[0].avg < rows[0].dists[0].avg);
        let rendered = sweep_report(&rows, &cfg).to_string();
        assert!(rendered.contains("sweep"));
    }
}
