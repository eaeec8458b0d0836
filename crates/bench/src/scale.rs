//! `repro scale` — the million-node scaling sweep.
//!
//! Sweeps bed construction across four orders of magnitude
//! (n = 1k → 1M; quick mode stops at 50k for CI) and measures, per
//! overlay and size, the three costs ROADMAP's scale item asks for:
//!
//! * **memory footprint** — live heap bytes per node, via the counting
//!   global allocator the `repro` binary installs (the library forbids
//!   `unsafe`, so the byte totals arrive through a [`BytesProbe`]
//!   function pointer, exactly like `perf`'s [`crate::perf::AllocCounter`]);
//! * **build throughput** — wall-clock nodes/second through the sorted
//!   bulk constructors (an O(n²) join per node would be infeasible at
//!   10^6);
//! * **query throughput** — routed lookups/second against the built
//!   overlay, with mean hop counts.
//!
//! On top of the raw kernels the sweep runs theorem-style growth checks:
//! Chord and Mercury mean hops must grow as O(log n) (the per-size
//! `hops / log2 n` ratios stay within a [`HOP_GROWTH_BAND`] band), and
//! Cycloid's node degree must stay bounded by a constant
//! ([`DEGREE_BOUND`]) independent of n — the paper's §IV claims,
//! validated at a thousand times the paper's scale.
//!
//! [`ScaleRun::violations`] is the sweep's verdict: a failed growth
//! check, or a point with no positive heap reading, makes `repro scale`
//! exit 1. Under `--baseline` so does any (system, n) cell whose heap
//! bytes per node rose above the baseline's ([`bytes_regressions`]): the
//! figure is a function of the seed alone, so unlike `elapsed_ms` it
//! needs no noise band. CI's scale-smoke job adds
//! `--baseline BENCH_scale_quick.json` and reads nothing but the exit
//! status.
//!
//! Results are emitted in the same `lorm-repro/perf-v2` schema as
//! `repro perf`, through the same [`PerfKernel`] record and kernel writer
//! (one build and one query kernel per system × size), plus two
//! scale-specific top-level arrays: `"scale"` (one row per system ×
//! size) and `"growth_checks"`.

use crate::perf::{json_field, json_rows, kernels_json, PerfKernel, Phase};
use crate::{export_head, ReproConfig};
use baselines::{Mercury, MercuryConfig};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{DhtError, Overlay, RouteStats};
use grid_resource::{AttrId, AttributeSpace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::{Report, Table};
use std::time::Instant;

/// Monotonic heap byte totals `(allocated, freed)` since process start.
/// Installed by binaries with a counting global allocator; `None` reports
/// `bytes_per_node` as unmeasured.
pub type BytesProbe = fn() -> (u64, u64);

/// Maximum allowed spread of the per-size `mean_hops / log2 n` ratio for
/// an O(log n) overlay: `max_ratio / min_ratio` across the sweep must not
/// exceed this. A truly logarithmic overlay holds the ratio constant
/// (Chord's is ~0.5); anything polynomial blows past the band within one
/// order of magnitude.
pub const HOP_GROWTH_BAND: f64 = 1.5;

/// Constant bound on Cycloid node degree, independent of n. Cycloid
/// maintains seven link kinds (inside/outside leaf pairs, one cubical,
/// two cyclic neighbors); 16 leaves headroom for dense clusters while
/// still refuting any degree that grows with n.
pub const DEGREE_BOUND: usize = 16;

/// Number of Mercury hubs in the sweep (attributes in the synthetic
/// space). Two is the minimum that exercises multi-hub construction;
/// each hub is a full n-node Chord ring, so the Mercury column costs
/// twice the Chord column. Typed `u32` to match `AttrId`'s raw form, so
/// hub-id arithmetic widens rather than truncates.
pub const MERCURY_HUBS: u32 = 2;

/// One system × size measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Which overlay/system (`"chord"`, `"cycloid"`, `"mercury"`).
    pub system: &'static str,
    /// Live nodes built.
    pub n: usize,
    /// Wall-clock milliseconds to build the overlay (bulk path).
    pub build_ms: f64,
    /// Net live heap bytes per node after construction, when a probe was
    /// installed. Mercury reports bytes per physical node across all hubs.
    pub bytes_per_node: Option<f64>,
    /// Routed lookups per second against the built overlay.
    pub query_ops_per_sec: f64,
    /// Mean hops over the routed lookups that succeeded.
    pub mean_hops: f64,
    /// Routed lookups that returned an error: counted, failed by the
    /// `route_errors` growth check, never averaged in as 0-hop routes.
    /// Not serialized per point; the check carries the counts.
    pub route_errors: u64,
    /// Maximum distinct outlinks over a deterministic node sample (for
    /// Mercury: within one hub).
    pub max_outlinks: usize,
}

/// One theorem-style growth check over the sweep.
#[derive(Debug, Clone)]
pub struct GrowthCheck {
    /// Which system the check covers.
    pub system: &'static str,
    /// What is being claimed (stable, machine-readable).
    pub claim: &'static str,
    /// The per-size statistic: `(n, mean_hops / log2 n)` for hop-growth
    /// checks, `(n, max_outlinks)` for the degree check, `(n, failed
    /// lookups)` for `route_errors`.
    pub per_size: Vec<(usize, f64)>,
    /// The observed spread: `max/min` ratio for hop growth, the maximum
    /// statistic for the degree bound, the total for `route_errors`.
    pub observed: f64,
    /// The allowed limit ([`HOP_GROWTH_BAND`], [`DEGREE_BOUND`], or 0
    /// failed lookups).
    pub limit: f64,
    /// Whether the observation stayed within the limit.
    pub ok: bool,
}

/// A completed scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The sizes swept.
    pub sizes: Vec<usize>,
    /// One point per system × size.
    pub points: Vec<ScalePoint>,
    /// The perf-v2 kernels (one build + one query kernel per point).
    pub kernels: Vec<PerfKernel>,
    /// The growth checks.
    pub checks: Vec<GrowthCheck>,
}

/// The sweep sizes for a configuration: the full sweep covers four
/// orders of magnitude; quick mode stops at 50k so the CI smoke job
/// finishes in seconds.
pub fn sweep_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[1_000, 10_000, 50_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    }
}

/// The smallest Cycloid dimension whose capacity `d·2^d` holds `n` nodes.
pub fn min_dimension(n: usize) -> u8 {
    let mut d: u8 = 3;
    while (d as usize) * (1usize << d) < n {
        d += 1;
    }
    d
}

/// Short label for a sweep size: `n1k`, `n50k`, `n1m`, or `n256` below
/// a thousand.
fn size_tag(n: usize) -> String {
    match n {
        n if n >= 1_000_000 && n % 1_000_000 == 0 => format!("n{}m", n / 1_000_000),
        n if n >= 1_000 && n % 1_000 == 0 => format!("n{}k", n / 1_000),
        n => format!("n{n}"),
    }
}

/// Kernel name of one (system, phase, size) cell, e.g. `chord_build_n1k`.
fn kernel_name(system: &str, phase: Phase, n: usize) -> String {
    format!("{system}_{phase}_{}", size_tag(n))
}

fn net_live_bytes(probe: Option<BytesProbe>) -> Option<i128> {
    probe.map(|p| {
        let (alloc, freed) = p();
        alloc as i128 - freed as i128
    })
}

fn bytes_per_node(before: Option<i128>, after: Option<i128>, n: usize) -> Option<f64> {
    match (before, after) {
        (Some(b), Some(a)) => Some(((a - b).max(0)) as f64 / n as f64),
        _ => None,
    }
}

/// Maximum distinct outlinks over a deterministic sample of live nodes
/// (every `len/512`-th node — sampling keeps the 1M sweep out of O(n)
/// neighbor enumeration without losing the degree bound's witness).
fn max_outlinks_sampled<O: Overlay>(net: &O) -> usize {
    let live = net.live_nodes();
    let step = (live.len() / 512).max(1);
    live.iter().step_by(step).map(|i| net.outlinks(i).unwrap_or(0)).max().unwrap_or(0)
}

struct QueryMeasure {
    ops_per_sec: f64,
    mean_hops: f64,
    route_errors: u64,
    elapsed_ms: f64,
}

/// Drive `iters` lookups. A lookup that errors is counted in
/// `route_errors` and left out of `mean_hops` (the mean is over the
/// routes that arrived).
fn measure_queries(
    iters: u64,
    mut route_one: impl FnMut(&mut SmallRng) -> Result<RouteStats, DhtError>,
    seed: u64,
) -> QueryMeasure {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hops_total: u64 = 0;
    let mut route_errors: u64 = 0;
    let started = Instant::now();
    for _ in 0..iters {
        match route_one(&mut rng) {
            Ok(route) => hops_total += route.hops as u64,
            Err(_) => route_errors += 1,
        }
    }
    let secs = started.elapsed().as_secs_f64();
    QueryMeasure {
        ops_per_sec: iters as f64 / secs.max(1e-12),
        mean_hops: hops_total as f64 / (iters - route_errors).max(1) as f64,
        route_errors,
        elapsed_ms: secs * 1e3,
    }
}

/// Run the full sweep at the configuration's scale. See [`run_scale_at`]
/// for the parameterized core (used by tests at tiny sizes).
pub fn run_scale(cfg: &ReproConfig, bytes: Option<BytesProbe>) -> ScaleRun {
    let iters = if cfg.quick { 2_000 } else { 4_000 };
    run_scale_at(cfg.seed, sweep_sizes(cfg.quick), iters, bytes)
}

/// The sweep core: for each size, build each overlay through the bulk
/// path (timed, with the heap delta attributed to it), drive `route_iters`
/// random lookups, then drop it before the next build so heap deltas
/// never overlap.
pub fn run_scale_at(
    seed: u64,
    sizes: &[usize],
    route_iters: u64,
    bytes: Option<BytesProbe>,
) -> ScaleRun {
    let mut sweep = Sweep { route_iters, bytes, points: Vec::new(), kernels: Vec::new() };
    for &n in sizes {
        let nq = n as u64;
        sweep.measure(
            "chord",
            n,
            seed ^ nq.wrapping_mul(0x9E3779B97F4A7C15),
            || Chord::build(n, ChordConfig { seed, ..ChordConfig::default() }),
            |chord, rng| {
                // lint:allow(panic-hygiene): built with n >= 1 live nodes.
                let from = chord.random_node(rng).expect("live node");
                let key: u64 = rng.gen();
                chord.route_stats(from, key)
            },
            max_outlinks_sampled,
        );

        // Cycloid: the smallest dimension that holds n.
        let d = min_dimension(n);
        sweep.measure(
            "cycloid",
            n,
            seed ^ nq.wrapping_mul(0xC0FFEE),
            || Cycloid::build(n, CycloidConfig { dimension: d, seed }),
            |cycloid, rng| {
                // lint:allow(panic-hygiene): built with n >= 1 live nodes.
                let from = cycloid.random_node(rng).expect("live node");
                let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
                cycloid.route_stats(from, key)
            },
            max_outlinks_sampled,
        );

        // Mercury: MERCURY_HUBS full-n Chord hubs; the degree is the
        // largest within one hub.
        let space = AttributeSpace::synthetic(MERCURY_HUBS as usize, 1.0, 100.0)
            // lint:allow(panic-hygiene): the synthetic range 1..100 is valid.
            .expect("valid space");
        sweep.measure(
            "mercury",
            n,
            seed ^ nq.wrapping_mul(0x9E3779B9),
            || Mercury::new(n, &space, MercuryConfig { seed }),
            |mercury, rng| {
                let hub = mercury.hub(AttrId(rng.gen_range(0..MERCURY_HUBS))).net();
                // lint:allow(panic-hygiene): hubs were built with n >= 1 live nodes.
                let from = hub.random_node(rng).expect("live node");
                let key: u64 = rng.gen();
                hub.route_stats(from, key)
            },
            |mercury| {
                let hubs =
                    (0..MERCURY_HUBS).map(|h| max_outlinks_sampled(mercury.hub(AttrId(h)).net()));
                hubs.max().unwrap_or(0)
            },
        );
    }
    let checks = growth_checks(&sweep.points);
    ScaleRun { sizes: sizes.to_vec(), points: sweep.points, kernels: sweep.kernels, checks }
}

/// A sweep in progress: its settings and the points and kernels so far.
struct Sweep {
    route_iters: u64,
    bytes: Option<BytesProbe>,
    points: Vec<ScalePoint>,
    kernels: Vec<PerfKernel>,
}

impl Sweep {
    /// Measure one system at size `n`: `build` it (timed, with the heap
    /// delta attributed to it), drive `route_iters` lookups through
    /// `route` from an RNG seeded with `query_seed`, sample its degree
    /// with `outlinks`, and record the point with its build and query
    /// kernels. The overlay is dropped on return.
    fn measure<T>(
        &mut self,
        system: &'static str,
        n: usize,
        query_seed: u64,
        build: impl FnOnce() -> T,
        mut route: impl FnMut(&T, &mut SmallRng) -> Result<RouteStats, DhtError>,
        outlinks: impl FnOnce(&T) -> usize,
    ) {
        let before = net_live_bytes(self.bytes);
        let started = Instant::now();
        let net = build();
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let bytes_per_node = bytes_per_node(before, net_live_bytes(self.bytes), n);
        let q = measure_queries(self.route_iters, |rng| route(&net, rng), query_seed);
        self.kernels.push(PerfKernel {
            name: kernel_name(system, "build", n),
            phase: "build",
            iters: n as u64,
            elapsed_ms: build_ms,
            ops_per_sec: n as f64 / (build_ms / 1e3).max(1e-12),
            ..PerfKernel::default()
        });
        self.kernels.push(PerfKernel {
            name: kernel_name(system, "query", n),
            phase: "query",
            iters: self.route_iters,
            elapsed_ms: q.elapsed_ms,
            ops_per_sec: q.ops_per_sec,
            ..PerfKernel::default()
        });
        self.points.push(ScalePoint {
            system,
            n,
            build_ms,
            bytes_per_node,
            query_ops_per_sec: q.ops_per_sec,
            mean_hops: q.mean_hops,
            route_errors: q.route_errors,
            max_outlinks: outlinks(&net),
        });
    }
}

/// Derive the growth checks from a sweep's points: O(log n) hop growth
/// for Chord and Mercury, constant degree for Cycloid, and no failed
/// lookup on any of the three (a routing error must fail the run, not
/// dilute a mean).
pub fn growth_checks(points: &[ScalePoint]) -> Vec<GrowthCheck> {
    let mut out = Vec::new();
    for system in ["chord", "mercury"] {
        let per_size: Vec<(usize, f64)> = points
            .iter()
            .filter(|p| p.system == system)
            .map(|p| (p.n, p.mean_hops / (p.n as f64).log2()))
            .collect();
        let max = per_size.iter().map(|&(_, r)| r).fold(f64::NEG_INFINITY, f64::max);
        let min = per_size.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let observed = if min > 0.0 { max / min } else { f64::INFINITY };
        out.push(GrowthCheck {
            system,
            claim: "mean_hops_O_log_n",
            ok: !per_size.is_empty() && observed <= HOP_GROWTH_BAND,
            per_size,
            observed,
            limit: HOP_GROWTH_BAND,
        });
    }
    let per_size: Vec<(usize, f64)> = points
        .iter()
        .filter(|p| p.system == "cycloid")
        .map(|p| (p.n, p.max_outlinks as f64))
        .collect();
    let observed = per_size.iter().map(|&(_, d)| d).fold(0.0, f64::max);
    out.push(GrowthCheck {
        system: "cycloid",
        claim: "constant_degree",
        ok: !per_size.is_empty() && observed <= DEGREE_BOUND as f64,
        per_size,
        observed,
        limit: DEGREE_BOUND as f64,
    });
    for system in ["chord", "cycloid", "mercury"] {
        let per_size: Vec<(usize, f64)> = points
            .iter()
            .filter(|p| p.system == system)
            .map(|p| (p.n, p.route_errors as f64))
            .collect();
        let observed: f64 = per_size.iter().map(|&(_, e)| e).sum();
        out.push(GrowthCheck {
            system,
            claim: "route_errors",
            ok: !per_size.is_empty() && observed == 0.0,
            per_size,
            observed,
            limit: 0.0,
        });
    }
    out
}

impl ScaleRun {
    /// Everything that fails the sweep, one line each: a growth check
    /// past its limit, or a point whose lookups averaged no hops or whose
    /// heap reading (when a probe was installed) is not positive. Empty
    /// means `repro scale` exits 0.
    pub fn violations(&self) -> Vec<String> {
        let checks = self.checks.iter().filter(|c| !c.ok).map(|c| {
            format!("{} {}: observed {} past limit {}", c.system, c.claim, c.observed, c.limit)
        });
        let points = self
            .points
            .iter()
            .filter(|p| p.mean_hops <= 0.0 || p.bytes_per_node.is_some_and(|b| b <= 0.0))
            .map(|p| {
                format!(
                    "{} n={}: mean hops {}, bytes per node {:?}",
                    p.system, p.n, p.mean_hops, p.bytes_per_node
                )
            });
        checks.chain(points).collect()
    }

    /// The sweep as a report for terminal output (and for pasting into
    /// EXPERIMENTS.md): the per-point table, then the growth checks.
    pub fn report(&self) -> Report {
        let mut sweep = Table::new(
            "Scale sweep",
            &[
                "system",
                "n",
                "build (ms)",
                "build nodes/s",
                "bytes/node",
                "query ops/s",
                "mean hops",
                "max outlinks",
            ],
        );
        for p in &self.points {
            let build_nps = p.n as f64 / (p.build_ms / 1e3).max(1e-12);
            sweep.row(vec![
                p.system.into(),
                p.n.to_string(),
                format!("{:.1}", p.build_ms),
                format!("{build_nps:.0}"),
                p.bytes_per_node.map_or_else(|| "-".into(), |b| format!("{b:.0}")),
                format!("{:.0}", p.query_ops_per_sec),
                format!("{:.2}", p.mean_hops),
                p.max_outlinks.to_string(),
            ]);
        }
        let mut checks = Table::new(
            "Growth checks",
            &["system", "claim", "per-size statistic", "observed", "limit", "status"],
        );
        for c in &self.checks {
            let stats: Vec<String> =
                c.per_size.iter().map(|&(n, v)| format!("{}:{:.2}", size_tag(n), v)).collect();
            checks.row(vec![
                c.system.into(),
                c.claim.into(),
                stats.join(" "),
                format!("{:.2}", c.observed),
                format!("{:.2}", c.limit),
                if c.ok { "ok" } else { "FAILED" }.into(),
            ]);
        }
        let mut rep = Report::new();
        rep.table(sweep).table(checks);
        rep
    }
}

/// `(system, n, bytes_per_node)` of every cell a committed scale export
/// measured, read from its `"scale"` array through
/// [`crate::perf::json_rows`] (cells recorded as `null` are left out).
///
/// # Errors
/// No `"scale"` array, an array that does not close, or a row without a
/// system, a size or a readable byte figure.
pub fn parse_scale_bytes(json: &str) -> Result<Vec<(String, usize, f64)>, String> {
    let mut out = Vec::new();
    for row in json_rows(json, "scale")? {
        let field = |key| json_field(row, key).ok_or_else(|| format!("scale row without {key}"));
        let (system, n, bytes) = (field("system")?, field("n")?, field("bytes_per_node")?);
        let n: usize = n.parse().map_err(|e| format!("bad n for {system}: {e}"))?;
        if bytes != "null" {
            let bytes: f64 =
                bytes.parse().map_err(|e| format!("bad bytes_per_node for {system} n={n}: {e}"))?;
            out.push((system.to_string(), n, bytes));
        }
    }
    Ok(out)
}

/// One line per (system, n) cell whose heap bytes per node rose above
/// the baseline's. Cells either side did not measure are skipped, the
/// same rule the kernel gate applies to kernel names.
pub fn bytes_regressions(points: &[ScalePoint], base: &[(String, usize, f64)]) -> Vec<String> {
    let rose = |p: &ScalePoint| {
        let bytes = p.bytes_per_node?;
        let (_, _, was) = base.iter().find(|(s, n, _)| s == p.system && *n == p.n)?;
        (bytes > *was).then(|| {
            format!("{} n={}: {bytes} bytes per node, above the baseline's {was}", p.system, p.n)
        })
    };
    points.iter().filter_map(rose).collect()
}

/// Serialize the sweep against the `lorm-repro/perf-v2` schema: the run
/// header with the swept `sizes`, the standard kernel array and phase
/// split, plus two scale-specific top-level arrays (`"scale"`,
/// `"growth_checks"`).
pub fn render_scale_json(cfg: &ReproConfig, run: &ScaleRun) -> String {
    use sim::report::{json_array, json_num, json_str};
    let point = |p: &ScalePoint| {
        format!(
            "{{\"system\":{},\"n\":{},\"build_ms\":{},\"bytes_per_node\":{},\"query_ops_per_sec\":{},\"mean_hops\":{},\"max_outlinks\":{}}}",
            json_str(p.system),
            p.n,
            json_num(p.build_ms),
            p.bytes_per_node.map_or_else(|| "null".into(), json_num),
            json_num(p.query_ops_per_sec),
            json_num(p.mean_hops),
            p.max_outlinks,
        )
    };
    let check = |c: &GrowthCheck| {
        format!(
            "{{\"system\":{},\"claim\":{},\"per_size\":{},\"observed\":{},\"limit\":{},\"ok\":{}}}",
            json_str(c.system),
            json_str(c.claim),
            json_array(c.per_size.iter().map(|&(n, v)| json_array([n.to_string(), json_num(v)]))),
            json_num(c.observed),
            json_num(c.limit),
            c.ok,
        )
    };
    format!(
        "{},\"sizes\":{}}},{},\"scale\":{},\"growth_checks\":{}}}",
        export_head("lorm-repro/perf-v2", cfg, false),
        json_array(run.sizes.iter().map(usize::to_string)),
        kernels_json(&run.kernels),
        json_array(run.points.iter().map(point)),
        json_array(run.checks.iter().map(check)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_dimension_covers_the_sweep() {
        assert_eq!(min_dimension(1_000), 8); // 8·256 = 2048
        assert_eq!(min_dimension(10_000), 10); // 10·1024 = 10240
        assert_eq!(min_dimension(50_000), 13); // 13·8192 = 106496
        assert_eq!(min_dimension(100_000), 13);
        assert_eq!(min_dimension(1_000_000), 16); // 16·65536 = 1048576
        for n in [1_000, 10_000, 50_000, 100_000, 1_000_000] {
            let d = min_dimension(n) as usize;
            assert!(d * (1 << d) >= n, "d = {d} cannot hold {n}");
        }
    }

    #[test]
    fn kernel_names_match_the_committed_baseline() {
        // The quick sweep's 18 kernels in run order (sizes outer, then
        // chord, cycloid, mercury, build before query) are the names
        // BENCH_scale_quick.json was recorded under, so `--baseline`
        // compares every one of them.
        let base = include_str!("../../../BENCH_scale_quick.json");
        let base: Vec<String> =
            crate::perf::parse_baseline(base).unwrap().into_iter().map(|(n, _)| n).collect();
        let mut names = Vec::new();
        for &n in sweep_sizes(true) {
            for sys in ["chord", "cycloid", "mercury"] {
                names.push(kernel_name(sys, "build", n));
                names.push(kernel_name(sys, "query", n));
            }
        }
        assert_eq!(names, base);
        assert_eq!(
            [64, 256, 1_000, 10_000, 50_000, 100_000, 1_000_000].map(size_tag),
            ["n64", "n256", "n1k", "n10k", "n50k", "n100k", "n1m"]
        );
    }

    #[test]
    fn tiny_sweep_end_to_end() {
        // Two tiny sizes exercise the whole pipeline — build, query,
        // outlink sampling, growth checks, both renderers — in test time.
        let run = run_scale_at(7, &[64, 256], 200, None);
        assert_eq!(run.points.len(), 6);
        assert_eq!(run.kernels.len(), 12);
        for p in &run.points {
            assert!(p.build_ms >= 0.0);
            assert!(p.query_ops_per_sec > 0.0, "{}: no throughput", p.system);
            assert!(p.mean_hops > 0.0, "{}: zero hops", p.system);
            assert!(p.bytes_per_node.is_none(), "no probe installed");
            assert!(p.max_outlinks > 0);
        }
        assert_eq!(run.checks.len(), 6);
        let cyc = run.checks.iter().find(|c| c.claim == "constant_degree").unwrap();
        assert_eq!(cyc.system, "cycloid");
        assert!(cyc.ok, "cycloid degree {} past bound", cyc.observed);
        for c in run.checks.iter().filter(|c| c.claim == "route_errors") {
            assert!(c.ok, "{}: {} lookups failed", c.system, c.observed);
        }
        assert!(run.violations().is_empty(), "{:?}", run.violations());
        assert_eq!(run.kernels[1].name, "chord_query_n64");
        // Everything no clock or allocator sets, in run order.
        let mut seen = String::new();
        for p in &run.points {
            let hops = p.mean_hops.to_bits();
            seen += &format!("{} {} {hops} {} {};", p.system, p.n, p.route_errors, p.max_outlinks);
        }
        for k in &run.kernels {
            seen += &format!("{} {};", k.name, k.iters);
        }
        assert_eq!(crate::tests::fnv1a(&seen), 0x2a96_0f58_a8a2_105d, "sweep moved: {seen}");
        // A heap probe that saw no growth fails the sweep.
        let mut no_heap = run.clone();
        no_heap.points[0].bytes_per_node = Some(0.0);
        assert_eq!(no_heap.violations().len(), 1);
        let table = run.report().to_string();
        assert!(table.starts_with("## Scale sweep\n"), "{table}");
        assert!(table.contains("\n\n## Growth checks\n"), "{table}");
        assert!(table.contains("|   chord |  64 |"), "{table}");
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let j = render_scale_json(&cfg, &run);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{"), "{j}");
        assert!(j.contains("\"sizes\":[64,256]"));
        assert!(j.contains("\"scale\":["));
        assert!(j.contains("\"growth_checks\":["));
        assert!(j.contains("\"claim\":\"constant_degree\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // The writer itself, pinned on a hand-built run no clock touches.
        let points: Vec<ScalePoint> = [1_000, 10_000]
            .into_iter()
            .flat_map(|n| ["chord", "cycloid", "mercury"].map(|s| point(s, n)))
            .map(|p| ScalePoint { bytes_per_node: (p.system == "chord").then_some(302.5), ..p })
            .collect();
        let kernels = vec![
            PerfKernel {
                name: "chord_build_n1k".into(),
                phase: "build",
                iters: 1_000,
                elapsed_ms: 0.75,
                ops_per_sec: 1.5e6,
                ..PerfKernel::default()
            },
            PerfKernel {
                name: "chord_query_n1k".into(),
                phase: "query",
                iters: 200,
                elapsed_ms: 0.125,
                ops_per_sec: 1.6e6,
                ..PerfKernel::default()
            },
        ];
        let fixture = ScaleRun {
            sizes: vec![1_000, 10_000],
            checks: growth_checks(&points),
            points,
            kernels,
        };
        let j = render_scale_json(&cfg, &fixture);
        assert_eq!(crate::tests::fnv1a(&j), 0x8d6c_6efb_d01a_84f7, "perf-v2 scale writer moved");
    }

    /// A synthetic point every growth check passes: 0.5·log2 n hops,
    /// degree 7, no failed lookup.
    fn point(system: &'static str, n: usize) -> ScalePoint {
        ScalePoint {
            system,
            n,
            build_ms: 1.0,
            bytes_per_node: None,
            query_ops_per_sec: 1.0,
            mean_hops: 0.5 * (n as f64).log2(),
            route_errors: 0,
            max_outlinks: 7,
        }
    }

    #[test]
    fn growth_checks_flag_superlogarithmic_hops() {
        // Synthetic points: hops growing like sqrt(n) must fail the
        // O(log n) band; hops at 0.5·log2 n must pass.
        let mk = |system, n, hops| ScalePoint { mean_hops: hops, ..point(system, n) };
        let good: Vec<ScalePoint> = [1_000usize, 10_000, 100_000]
            .iter()
            .map(|&n| mk("chord", n, 0.5 * (n as f64).log2()))
            .collect();
        let checks = growth_checks(&good);
        assert!(checks.iter().filter(|c| c.system == "chord").all(|c| c.ok));
        let bad: Vec<ScalePoint> = [1_000usize, 10_000, 100_000]
            .iter()
            .map(|&n| mk("chord", n, (n as f64).sqrt()))
            .collect();
        let checks = growth_checks(&bad);
        let chord = checks.iter().find(|c| c.system == "chord").unwrap();
        assert!(!chord.ok, "sqrt-growth passed: observed {}", chord.observed);
        // Degree check fails when the degree exceeds the constant bound.
        let big_degree = vec![ScalePoint { max_outlinks: 40, ..mk("cycloid", 1_000, 3.0) }];
        let checks = growth_checks(&big_degree);
        assert!(!checks.iter().find(|c| c.system == "cycloid").unwrap().ok);
        // Empty sweeps never claim success.
        for c in growth_checks(&[]) {
            assert!(!c.ok, "{} ok on empty sweep", c.system);
        }
    }

    #[test]
    fn routing_errors_are_counted_and_fail_their_check() {
        // Every third lookup errors: the mean is over the routes that
        // arrived (4 hops each), not diluted by 0-hop stand-ins.
        let mut calls = 0u32;
        let q = measure_queries(
            9,
            |_| {
                calls += 1;
                if calls.is_multiple_of(3) {
                    Err(DhtError::EmptyOverlay)
                } else {
                    Ok(RouteStats { hops: 4, terminal: dht_core::NodeIdx(0), exact: true })
                }
            },
            1,
        );
        assert_eq!((q.route_errors, q.mean_hops), (3, 4.0));

        let mk = |system, n, route_errors| ScalePoint { route_errors, ..point(system, n) };
        let points: Vec<ScalePoint> = ["chord", "cycloid", "mercury"]
            .into_iter()
            .flat_map(|s| [mk(s, 1_000, 0), mk(s, 10_000, u64::from(s == "cycloid"))])
            .collect();
        let checks = growth_checks(&points);
        let errors: Vec<&GrowthCheck> =
            checks.iter().filter(|c| c.claim == "route_errors").collect();
        assert_eq!(
            errors.iter().map(|c| c.system).collect::<Vec<_>>(),
            ["chord", "cycloid", "mercury"]
        );
        for c in errors {
            assert_eq!(c.ok, c.system != "cycloid", "{}", c.system);
            assert_eq!(c.observed, if c.ok { 0.0 } else { 1.0 });
            assert_eq!(c.limit, 0.0);
        }
        // One failed lookup leaves the other claims standing but fails the sweep.
        assert!(checks.iter().filter(|c| c.claim != "route_errors").all(|c| c.ok));
        assert!(!checks.iter().all(|c| c.ok));
    }

    #[test]
    fn bytes_gate_flags_only_cells_that_grew() {
        let committed = parse_scale_bytes(include_str!("../../../BENCH_scale_quick.json")).unwrap();
        assert_eq!(committed.len(), 9, "every quick cell measured its heap");
        let at = |s: &str, n: usize| committed.iter().find(|c| c.0 == s && c.1 == n).unwrap().2;
        let mk = |system, n, bytes| ScalePoint { bytes_per_node: bytes, ..point(system, n) };
        let chord = at("chord", 1_000);
        let points = [
            mk("chord", 1_000, Some(chord + 0.5)),
            mk("cycloid", 1_000, Some(at("cycloid", 1_000))),
            mk("mercury", 1_000, Some(at("mercury", 1_000) - 1.0)),
            mk("chord", 10_000, None),
            mk("chord", 7, Some(1e9)),
        ];
        let flagged = bytes_regressions(&points, &committed);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].starts_with("chord n=1000: "), "{flagged:?}");
        // Rows recorded as null are unmeasured, not zero; a row cut short
        // or an export without the array is refused.
        let row = "{\"system\":\"chord\",\"n\":64,\"bytes_per_node\":null}";
        assert_eq!(parse_scale_bytes(&format!("{{\"scale\":[{row}]}}")), Ok(vec![]));
        assert!(parse_scale_bytes(&format!("{{\"scale\":[{row}")).is_err());
        assert!(parse_scale_bytes("{\"scale\":[{\"system\":\"chord\"}]}").is_err());
        assert!(parse_scale_bytes(include_str!("../../../BENCH_perf_quick.json")).is_err());
    }

    #[test]
    fn bytes_accounting_is_none_without_probe_and_monotone_with() {
        assert_eq!(bytes_per_node(None, None, 10), None);
        assert_eq!(bytes_per_node(Some(100), Some(1100), 10), Some(100.0));
        // A net-negative delta (frees attributed to the window) clamps to 0.
        assert_eq!(bytes_per_node(Some(1100), Some(100), 10), Some(0.0));
    }
}
