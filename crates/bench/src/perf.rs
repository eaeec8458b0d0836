//! `repro perf` — the wall-clock performance baseline.
//!
//! Times the hot kernels every figure decomposes into (overlay routing,
//! maintenance repair, LORM range probing), the bed-construction phase
//! the [`sim::BedCache`] amortizes (`build_bed_*`, `bed_clone`), and the
//! quick-mode figure pipelines end to end against a warm cache.
//!
//! `repro perf` and `repro scale` share one kernel record,
//! [`PerfKernel`], and one writer for the `lorm-repro/perf-v2` kernel
//! array and its build/query `phase_totals` split, `kernels_json`.
//! Their terminal tables are [`sim::Table`]s like every figure's. The
//! committed `BENCH_*.json` files are produced by these modes.
//! `--baseline <BENCH.json>` diffs a run against one of
//! them and exits 1 when a kernel slows past [`REGRESSION_THRESHOLD`]
//! (query) or [`BUILD_REGRESSION_THRESHOLD`] (build). CI's perf-smoke job
//! is exactly `repro perf --quick --shards=1 --baseline
//! BENCH_perf_quick.json`: the exit status is the verdict.
//!
//! Allocation counts come from a counting `#[global_allocator]` that only
//! the `repro` binary (and the `alloc_count` test binary) installs — this
//! library forbids `unsafe`, so the binary passes the counter in as a
//! plain function pointer.

use crate::{export_head, run_artifact_report, Artifact, Mode, ReproConfig};
use analysis::System;
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{DhtError, NodeIdx, Overlay, RouteCache};
use grid_resource::{intersect_sorted, Query, QueryMix, QueryPlan, ResourceDiscovery, Workload};
use lorm::{Lorm, LormConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::experiments::{run_batch, BatchMode, Metric};
use sim::{build_system, BedCache, Report, SimConfig, Table, TestBed};
use std::hint::black_box;
use std::time::Instant;

/// Counts heap allocations performed while running the closure. Installed
/// by binaries with a counting global allocator; `None` reports
/// `allocs_per_iter` as unmeasured.
pub type AllocCounter = fn(&mut dyn FnMut()) -> u64;

/// Wall-clock phase a kernel belongs to: `"build"` for bed construction
/// and snapshotting (the cost the [`BedCache`] amortizes), `"query"` for
/// everything driven against an already stabilized bed.
pub type Phase = &'static str;

/// One timed kernel of a `repro perf` or `repro scale` run.
#[derive(Debug, Clone, Default)]
pub struct PerfKernel {
    /// Stable kernel name (schema field). Scale kernels are named
    /// `{system}_{phase}_{size}`, e.g. `chord_build_n1k`.
    pub name: String,
    /// Which wall-clock phase this kernel measures (`"build"`/`"query"`).
    pub phase: Phase,
    /// Iterations timed.
    pub iters: u64,
    /// Total wall-clock milliseconds for all iterations.
    pub elapsed_ms: f64,
    /// Iterations per second.
    pub ops_per_sec: f64,
    /// Mean heap allocations per iteration, when a counter was installed.
    pub allocs_per_iter: Option<f64>,
    /// Walk-cache hit rate over one deterministic warm pass, for the
    /// cached kernel only. A pure function of the seed and the cache
    /// geometry, pinned exactly by a unit test.
    pub cache_hit_rate: Option<f64>,
}

fn time_kernel(name: &str, phase: Phase, iters: u64, mut f: impl FnMut()) -> PerfKernel {
    // Best-of-N timing with a reproduced floor: scheduler blips inflate
    // a single pass by 30%+ even on the sub-second kernels, and the
    // regression gate needs a stable floor. A fixed pass count is not
    // enough — a bursty stall can cover all of a short kernel's passes
    // back to back — so after the minimum three passes we keep sampling
    // until a *second* pass lands within 5% of the best (the floor has
    // been reproduced, so it is not a one-off), capped at nine passes.
    let (min_passes, max_passes) = (3, 9);
    let mut times = Vec::with_capacity(max_passes);
    while times.len() < max_passes {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= min_passes {
            let best_so_far = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let near_floor = times.iter().filter(|&&t| t <= best_so_far * 1.05).count();
            if near_floor >= 2 {
                break;
            }
        }
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    PerfKernel {
        name: name.to_owned(),
        phase,
        iters,
        elapsed_ms: best * 1e3,
        ops_per_sec: iters as f64 / best.max(1e-12),
        ..PerfKernel::default()
    }
}

/// Time `f` as a query kernel, then re-run `probe_iters` iterations of
/// the same closure under the allocation counter for `allocs_per_iter`
/// (left unmeasured when no counter is installed).
fn time_and_count_allocs(
    name: &str,
    iters: u64,
    probe_iters: u64,
    counter: Option<AllocCounter>,
    mut f: impl FnMut(),
) -> PerfKernel {
    let mut k = time_kernel(name, "query", iters, &mut f);
    if let Some(count) = counter {
        let total = count(&mut || (0..probe_iters).for_each(|_| f()));
        k.allocs_per_iter = Some(total as f64 / probe_iters as f64);
    }
    k
}

/// `{system}_route_stats` and `{system}_route_traced`: the untraced fast
/// path and the traced path, each cycling through the same `(from, key)`
/// plan. Timing runs whole passes over the plan, so the allocation pass
/// starts again at its first entry.
fn route_kernels<O: Overlay>(
    system: &str,
    net: &O,
    plan: &[(NodeIdx, O::Key)],
    probe_iters: u64,
    counter: Option<AllocCounter>,
) -> [PerfKernel; 2] {
    let iters = plan.len() as u64;
    let (stats, traced) = (format!("{system}_route_stats"), format!("{system}_route_traced"));
    let mut i = 0usize;
    let stats = time_and_count_allocs(&stats, iters, probe_iters, counter, || {
        let (from, key) = plan[i % plan.len()];
        black_box(net.route_stats(from, key).map(|r| r.hops).unwrap_or(0));
        i += 1;
    });
    let mut i = 0usize;
    let traced = time_and_count_allocs(&traced, iters, probe_iters, counter, || {
        let (from, key) = plan[i % plan.len()];
        black_box(net.route(from, key).map(|r| r.hops()).unwrap_or(0));
        i += 1;
    });
    [stats, traced]
}

/// The LORM range-probe fixture: the configuration's workload placed on
/// one LORM system, and the fixed range-query batch that
/// `lorm_range_probe_batched` replays.
pub(crate) struct LormProbe {
    sim_cfg: SimConfig,
    workload: Workload,
    lorm: Lorm,
    batch: Vec<(usize, Query)>,
}

impl LormProbe {
    /// Build the fixture at the configuration's scale (1 000 batch
    /// queries in quick mode, 5 000 otherwise).
    pub(crate) fn new(cfg: &ReproConfig) -> Result<Self, DhtError> {
        let sim_cfg = cfg.sim();
        let mut wl_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x10);
        let workload = Workload::generate(sim_cfg.workload_config(), &mut wl_rng)?;
        let mut lorm = Lorm::new(
            sim_cfg.nodes,
            &workload.space,
            LormConfig { dimension: sim_cfg.dimension, seed: cfg.seed, ..LormConfig::default() },
        );
        lorm.place_all(&workload.reports);
        let probe_q = if cfg.quick { 1_000 } else { 5_000 };
        let mut batch_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x12);
        let batch = (0..probe_q)
            .map(|_| {
                let origin = batch_rng.gen_range(0..sim_cfg.nodes);
                (origin, workload.random_query(1, QueryMix::Range, &mut batch_rng))
            })
            .collect();
        Ok(Self { sim_cfg, workload, lorm, batch })
    }

    /// One pass of the batch through the walk-cached executor on one
    /// worker, so `cache` persists across the whole pass.
    fn replay(&self, cache: &mut RouteCache) {
        let mode = BatchMode::Cached(QueryPlan::Parallel, cache);
        black_box(run_batch(&self.lorm, &self.batch, Metric::Visited, mode, 1));
    }

    /// The walk-cache hit rate of the first steady-state pass, leaving
    /// `cache` warm. Two-touch admission stamps a repeated walk key on
    /// pass one and records it on pass two, so pass three is the first
    /// steady-state pass. Cache contents after a full pass depend only on
    /// the batch, so the rate is a pure function of the seed — unlike a
    /// count taken in the timing loop, whose pass count follows the clock.
    pub(crate) fn warm_hit_rate(&self, cache: &mut RouteCache) -> Option<f64> {
        for _ in 0..2 {
            self.replay(cache);
        }
        cache.reset_counters();
        self.replay(cache);
        cache.hit_rate()
    }
}

/// Run every perf kernel at the configuration's scale.
pub fn run_perf(cfg: &ReproConfig, counter: Option<AllocCounter>) -> Vec<PerfKernel> {
    let (n_chord, d, route_iters, probe_iters) = if cfg.quick {
        (512usize, 7u8, 50_000u64, 2_000u64)
    } else {
        (2048usize, 8u8, 200_000u64, 2_000u64)
    };
    let n_cycloid = d as usize * (1usize << d);
    let mut kernels = Vec::new();

    // --- overlay routing: the innermost kernel of every figure ---------
    let chord = Chord::build(n_chord, ChordConfig { seed: cfg.seed, ..ChordConfig::default() });
    let cycloid = Cycloid::build(n_cycloid, CycloidConfig { dimension: d, seed: cfg.seed });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E3779B97F4A7C15);
    let chord_plan: Vec<(NodeIdx, u64)> = (0..route_iters)
        .map(|_| (chord.random_node(&mut rng).expect("live node"), rng.gen()))
        .collect();
    let cycloid_plan: Vec<(NodeIdx, CycloidId)> = (0..route_iters)
        .map(|_| {
            let from = cycloid.random_node(&mut rng).expect("live node");
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
            (from, key)
        })
        .collect();
    kernels.extend(route_kernels("chord", &chord, &chord_plan, probe_iters, counter));
    kernels.extend(route_kernels("cycloid", &cycloid, &cycloid_plan, probe_iters, counter));

    // --- maintenance: the perfect-repair tick every churn round pays ---
    let maint_iters = if cfg.quick { 10 } else { 20 };
    let mut maint_net =
        Chord::build(n_chord, ChordConfig { seed: cfg.seed ^ 1, ..ChordConfig::default() });
    kernels.push(time_kernel("chord_maintenance", "query", maint_iters, || {
        maint_net.rebuild_all_state();
        black_box(maint_net.len());
    }));

    // --- LORM range probing: route + cluster walk + directory scan -----
    let probe = LormProbe::new(cfg).expect("valid config");
    let (sim_cfg, workload, lorm) = (probe.sim_cfg, &probe.workload, &probe.lorm);
    let probe_q = probe.batch.len() as u64;
    let mut q_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x11);
    kernels.push(time_kernel("lorm_range_probe", "query", probe_q, || {
        let q = workload.random_query(1, QueryMix::Range, &mut q_rng);
        let origin = q_rng.gen_range(0..sim_cfg.nodes);
        black_box(lorm.query_from(origin, &q).map(|o| o.tally.visited).unwrap_or(0));
    }));

    // --- batched LORM range probing: the sim executor's cached path ----
    // One iteration = one full batch through the walk-cached executor,
    // measured after the hit rate so the cache is warm. The equivalence
    // tests in `sim` prove the batch summary is bit-identical to the
    // plain executor's.
    let mut walk_cache = RouteCache::new();
    let hit_rate = probe.warm_hit_rate(&mut walk_cache);
    let mut k =
        time_kernel("lorm_range_probe_batched", "query", 1, || probe.replay(&mut walk_cache));
    // One timed "iteration" was the whole probe_q-query batch: rescale
    // iters/ops_per_sec to per-query units so the kernel reads side by
    // side with lorm_range_probe (elapsed_ms already covers the same
    // probe_q queries in both).
    k.iters = probe_q;
    k.ops_per_sec = probe_q as f64 / (k.elapsed_ms / 1e3).max(1e-12);
    k.cache_hit_rate = hit_rate;
    kernels.push(k);

    // --- planner: zero-alloc candidate intersection --------------------
    // One iteration = refill the accumulator from the large sorted set
    // and intersect the small one into it in place. The refill stays
    // within the pre-sized capacity, so a nonzero allocs/iter here means
    // the merge kernel itself regressed (the alloc_count test binary
    // pins the same invariant exactly).
    {
        let mut i_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x13);
        let mut sorted_set = |len: usize, max: usize| -> Vec<usize> {
            let mut v: Vec<usize> = (0..len).map(|_| i_rng.gen_range(0..max)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let big = sorted_set(4096, 1 << 16);
        let small = sorted_set(256, 1 << 16);
        let mut acc = Vec::with_capacity(big.len());
        let intersect_iters = if cfg.quick { 50_000u64 } else { 200_000u64 };
        kernels.push(time_and_count_allocs(
            "planner_intersect",
            intersect_iters,
            probe_iters,
            counter,
            || {
                acc.clear();
                acc.extend_from_slice(&big);
                intersect_sorted(&mut acc, &small);
                black_box(acc.len());
            },
        ));
    }

    // --- planner: adaptive multi-attribute resolution --------------------
    // Arity-4 range queries through the selectivity-ordered sequential
    // plan — the path the `--plan=adaptive` figures take per query. LORM
    // probes ~10 directory nodes a query; Mercury probes `1 + n/4` per
    // range sub-query (Theorem 4.9), so its kernel is the one that sees
    // planner work that is superlinear in the probe list.
    {
        let mercury = build_system(System::Mercury, workload, &sim_cfg);
        let cells: [(&'static str, &dyn ResourceDiscovery, u64); 2] = [
            ("planner_adaptive_probe", lorm, 0x14),
            ("planner_adaptive_probe_mercury", &*mercury, 0x15),
        ];
        for (name, sys, stream) in cells {
            let mut p_rng = SmallRng::seed_from_u64(cfg.seed ^ stream);
            kernels.push(time_kernel(name, "query", probe_q, || {
                let q = workload.random_query(4, QueryMix::Range, &mut p_rng);
                let origin = p_rng.gen_range(0..sim_cfg.nodes);
                black_box(
                    sys.query_planned(origin, &q, QueryPlan::Adaptive)
                        .map(|o| o.tally.matches)
                        .unwrap_or(0),
                );
            }));
        }
    }

    // --- bed construction: the phase the BedCache amortizes ------------
    // Each system's stabilized build is timed individually against the
    // standard bed workload, then the built systems are assembled into
    // the shared bed so the pipeline kernels below run against the very
    // beds whose construction was measured.
    let cache = BedCache::new();
    let (bed_workload, bed_seeds) = TestBed::workload_of(&sim_cfg);
    let mut systems = Vec::with_capacity(System::ALL.len());
    for s in System::ALL {
        let mut slot = None;
        let name = format!("build_bed_{}", s.name().to_lowercase());
        kernels.push(time_kernel(&name, "build", 1, || {
            slot = Some(build_system(s, &bed_workload, &sim_cfg));
        }));
        systems.push(slot.expect("build kernel ran"));
    }
    let bed = TestBed { cfg: sim_cfg, workload: bed_workload, systems, seeds: bed_seeds };
    let clone_iters = if cfg.quick { 3 } else { 2 };
    kernels.push(time_kernel("bed_clone", "build", clone_iters, || {
        black_box(bed.systems.clone());
    }));
    let _shared = cache.prime(bed);

    // --- figure pipelines, end to end against the warm cache -----------
    // In quick mode the primed bed above *is* the pipelines' bed, so
    // these kernels measure the query phase the cache leaves behind; the
    // churn pipelines clone cached prototypes instead of rebuilding per
    // (rate, system) cell.
    let fig_cfg = ReproConfig { quick: true, json: None, mode: Mode::Figures, ..cfg.clone() };
    for (name, arts) in [
        ("fig4_quick", &[Artifact::Fig4][..]),
        ("fig5_quick", &[Artifact::Fig5][..]),
        ("fig6_quick", &[Artifact::Fig6a, Artifact::Fig6b][..]),
    ] {
        kernels.push(time_kernel(name, "query", 1, || {
            for &a in arts {
                black_box(run_artifact_report(a, &fig_cfg, &cache).tables().len());
            }
        }));
    }
    kernels.push(time_kernel("chaos_quick", "query", 1, || {
        let c = crate::chaos::run_chaos(&fig_cfg, &cache);
        black_box(c.systems.len());
    }));

    kernels
}

/// The fields every perf-v2 export shares after its `config`: the
/// `phase_totals` object splitting the run's wall-clock into build vs
/// query milliseconds, and the `kernels` array, one object shape per
/// kernel. `repro perf` and `repro scale` both write their kernels
/// through here.
pub(crate) fn kernels_json(kernels: &[PerfKernel]) -> String {
    use sim::report::{json_array, json_num, json_str};
    let opt = |x: Option<f64>| x.map_or_else(|| "null".to_string(), json_num);
    let total_ms = |phase: &str| -> f64 {
        kernels.iter().filter(|k| k.phase == phase).map(|k| k.elapsed_ms).sum()
    };
    let kernel = |k: &PerfKernel| {
        format!(
            "{{\"name\":{},\"phase\":{},\"iters\":{},\"elapsed_ms\":{},\"ops_per_sec\":{},\"allocs_per_iter\":{},\"cache_hit_rate\":{}}}",
            json_str(&k.name),
            json_str(k.phase),
            k.iters,
            json_num(k.elapsed_ms),
            json_num(k.ops_per_sec),
            opt(k.allocs_per_iter),
            opt(k.cache_hit_rate),
        )
    };
    format!(
        "\"phase_totals\":{{\"build_ms\":{},\"query_ms\":{}}},\"kernels\":{}",
        json_num(total_ms("build")),
        json_num(total_ms("query")),
        json_array(kernels.iter().map(kernel))
    )
}

/// Serialize a perf run against the stable `lorm-repro/perf-v2` schema:
/// the run header, then `kernels_json`'s fields.
pub fn render_perf_json(cfg: &ReproConfig, kernels: &[PerfKernel]) -> String {
    format!("{}}},{}}}", export_head("lorm-repro/perf-v2", cfg, true), kernels_json(kernels))
}

/// Per-kernel slowdown factor above which a query-phase run counts as a
/// regression under `--baseline` (and so in CI's perf-smoke job). Sized
/// to the measured noise envelope of a loaded 1-CPU runner (sustained
/// slow windows inflate even a best-of-N floor by ~1.4x); the
/// regressions this gate exists to catch — losing the bed cache's
/// amortization, or an allocation sneaking back onto the routing fast
/// path — show up at 2x and beyond.
pub const REGRESSION_THRESHOLD: f64 = 1.5;

/// Slightly looser gate for build-phase kernels: bed construction is
/// allocation-bound and the `build_bed_*` kernels finish in single-digit
/// milliseconds, so their run-to-run variance is the widest in the
/// suite. 1.6x still catches any structural regression (the flattening
/// work this gate protects was worth 2x+).
pub const BUILD_REGRESSION_THRESHOLD: f64 = 1.6;

/// One kernel's comparison against a committed baseline.
#[derive(Debug, Clone)]
pub struct KernelDelta {
    /// Kernel name (present in both current run and baseline).
    pub name: String,
    /// Baseline elapsed milliseconds.
    pub base_ms: f64,
    /// Current elapsed milliseconds.
    pub current_ms: f64,
    /// `current / base` slowdown factor.
    pub ratio: f64,
    /// Whether the ratio exceeds [`REGRESSION_THRESHOLD`].
    pub regressed: bool,
}

/// The rows of a machine-written export's `"<array>":[…]` array, each
/// without its braces. A hand-rolled scan, not a JSON parser: the files
/// are written by [`kernels_json`] and `scale::render_scale_json`, whose
/// rows are flat, compact objects. The array must close: a truncated file
/// is an error, not a shorter list.
pub(crate) fn json_rows<'a>(json: &'a str, array: &str) -> Result<Vec<&'a str>, String> {
    let head = format!("\"{array}\":[");
    let at = json.find(&head).ok_or_else(|| format!("no \"{array}\" array"))?;
    let mut rest = &json[at + head.len()..];
    let mut rows = Vec::new();
    while !rest.starts_with(']') {
        let end = rest.find('}').ok_or_else(|| format!("truncated \"{array}\" array"))?;
        rows.push(&rest[..end]);
        rest = &rest[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Ok(rows)
}

/// The raw value of field `key` in one [`json_rows`] row: the text up to
/// the next comma, a string's quotes trimmed.
pub(crate) fn json_field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let at = row.find(&format!("\"{key}\":"))?;
    let value = row[at + key.len() + 3..].split(',').next().unwrap_or_default();
    Some(value.trim().trim_matches('"'))
}

/// Extract `(name, elapsed_ms)` pairs from a committed `BENCH_*.json`
/// perf export (v1 or v2 — both carry `"kernels":[{"name":…,
/// "elapsed_ms":…}]`), through [`json_rows`]. An `elapsed_ms` that is not
/// a finite, non-negative number is an error.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for kernel in json_rows(json, "kernels")? {
        let name = json_field(kernel, "name").ok_or("kernel without a name")?;
        let ms = json_field(kernel, "elapsed_ms")
            .ok_or_else(|| format!("kernel {name} has no elapsed_ms"))?;
        let ms: f64 = ms.parse().map_err(|e| format!("bad elapsed_ms for {name}: {e}"))?;
        // `f64` parses `inf`, `NaN` and negatives: an infinite baseline
        // would make the ratio 0 and the gate unable to fire, the others a
        // false regression.
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!("bad elapsed_ms for {name}: {ms} is not a finite duration"));
        }
        out.push((name.to_string(), ms));
    }
    if out.is_empty() {
        return Err("baseline lists no kernels".to_string());
    }
    Ok(out)
}

/// Compare the current run against a parsed baseline. Only kernels
/// present in both are compared — the same rule CI applies, so renamed
/// or newly added kernels never trip the gate. `None` when the two share
/// no kernel at all: a baseline of the wrong kind (a scale export handed
/// to `perf`, or the reverse) would compare nothing and so gate nothing.
pub fn diff_baseline(
    current: &[PerfKernel],
    baseline: &[(String, f64)],
) -> Option<Vec<KernelDelta>> {
    let mut out = Vec::new();
    for k in current {
        let Some((_, base_ms)) = baseline.iter().find(|(n, _)| *n == k.name) else { continue };
        let ratio = k.elapsed_ms / base_ms.max(1e-9);
        let threshold =
            if k.phase == "build" { BUILD_REGRESSION_THRESHOLD } else { REGRESSION_THRESHOLD };
        out.push(KernelDelta {
            name: k.name.clone(),
            base_ms: *base_ms,
            current_ms: k.elapsed_ms,
            ratio,
            regressed: ratio > threshold,
        });
    }
    (!out.is_empty()).then_some(out)
}

/// A baseline comparison as a table, one row per shared kernel.
pub fn delta_table(path: &std::path::Path, deltas: &[KernelDelta]) -> Table {
    let mut t = Table::new(
        format!("Baseline comparison vs {}", path.display()),
        &["kernel", "baseline (ms)", "current (ms)", "ratio", "status"],
    );
    for d in deltas {
        t.row(vec![
            d.name.clone(),
            format!("{:.1}", d.base_ms),
            format!("{:.1}", d.current_ms),
            format!("{:.2}x", d.ratio),
            if d.regressed { "REGRESSED" } else { "ok" }.into(),
        ]);
    }
    t
}

/// The perf run as a report: one table row per kernel.
pub fn perf_report(kernels: &[PerfKernel]) -> Report {
    let mut t = Table::new(
        "Performance kernels",
        &["kernel", "phase", "iters", "elapsed (ms)", "ops/sec", "allocs/iter", "hit rate"],
    );
    for k in kernels {
        t.row(vec![
            k.name.clone(),
            k.phase.into(),
            k.iters.to_string(),
            format!("{:.1}", k.elapsed_ms),
            format!("{:.0}", k.ops_per_sec),
            k.allocs_per_iter.map_or_else(|| "-".into(), |a| format!("{a:.2}")),
            k.cache_hit_rate.map_or_else(|| "-".into(), |h| format!("{:.1}%", h * 100.0)),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ReproConfig {
        ReproConfig { quick: true, seed: 7, ..ReproConfig::default() }
    }

    fn sample_kernels() -> Vec<PerfKernel> {
        vec![
            PerfKernel {
                name: "chord_route_stats".into(),
                phase: "query",
                iters: 100,
                elapsed_ms: 2.5,
                ops_per_sec: 40_000.0,
                allocs_per_iter: Some(0.0),
                cache_hit_rate: None,
            },
            PerfKernel {
                name: "build_bed_lorm".into(),
                phase: "build",
                iters: 1,
                elapsed_ms: 40.0,
                ops_per_sec: 25.0,
                allocs_per_iter: None,
                cache_hit_rate: None,
            },
            PerfKernel {
                name: "fig4_quick".into(),
                phase: "query",
                iters: 1,
                elapsed_ms: 150.0,
                ops_per_sec: 6.7,
                allocs_per_iter: None,
                cache_hit_rate: Some(0.875),
            },
        ]
    }

    #[test]
    fn perf_json_has_schema_config_and_kernels() {
        let cfg = tiny_cfg();
        let j = render_perf_json(&cfg, &sample_kernels());
        assert!(j.starts_with("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{"), "{j}");
        assert!(j.contains("\"quick\":true"));
        assert!(j.contains("\"phase_totals\":{\"build_ms\":40,\"query_ms\":152.5}"), "{j}");
        assert!(j.contains("\"name\":\"chord_route_stats\",\"phase\":\"query\",\"iters\":100"));
        assert!(j.contains("\"name\":\"build_bed_lorm\",\"phase\":\"build\""));
        assert!(j.contains("\"allocs_per_iter\":0"));
        assert!(j.contains("\"allocs_per_iter\":null"));
        assert!(j.contains("\"cache_hit_rate\":0.875"));
        assert!(j.contains("\"cache_hit_rate\":null"));
        assert!(j.ends_with("]}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(crate::tests::fnv1a(&j), 0xfb4e_3a3b_6f7a_6f8d, "perf-v2 writer moved");
    }

    #[test]
    fn perf_table_lists_every_kernel() {
        let kernels = vec![PerfKernel {
            name: "cycloid_route_stats".into(),
            phase: "query",
            iters: 10,
            elapsed_ms: 1.0,
            ops_per_sec: 10_000.0,
            allocs_per_iter: None,
            cache_hit_rate: Some(0.5),
        }];
        let t = perf_report(&kernels).to_string();
        assert!(t.starts_with("## Performance kernels\n"), "{t}");
        assert!(t.contains("| cycloid_route_stats | query |    10 |"), "{t}");
        assert!(t.contains("|           - |"), "unmeasured allocs render as a dash: {t}");
        assert!(t.contains("|    50.0% |"), "hit rate renders as a percentage: {t}");
    }

    #[test]
    fn route_kernels_time_and_report() {
        // A minimal end-to-end run of the routing kernels only would still
        // build full networks; instead exercise the helper directly.
        let k = time_kernel("probe", "query", 50, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(k.iters, 50);
        assert!(k.elapsed_ms >= 0.0);
        assert!(k.ops_per_sec > 0.0);
        assert!(k.allocs_per_iter.is_none());
    }

    #[test]
    fn baseline_roundtrips_through_render_and_parse() {
        let cfg = tiny_cfg();
        let kernels = sample_kernels();
        let j = render_perf_json(&cfg, &kernels);
        let base = parse_baseline(&j).expect("rendered JSON parses as baseline");
        assert_eq!(base.len(), kernels.len());
        for (k, (name, ms)) in kernels.iter().zip(&base) {
            assert_eq!(&k.name, name);
            assert!((k.elapsed_ms - ms).abs() < 1e-9, "{name}: {ms}");
        }
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"kernels\":[]}").is_err());
        assert!(parse_baseline("{\"kernels\":[{\"name\":\"x\"}]}").is_err());
        for ms in ["inf", "-inf", "NaN", "-1.5"] {
            let json = format!("{{\"kernels\":[{{\"name\":\"x\",\"elapsed_ms\":{ms}}}]}}");
            assert!(parse_baseline(&json).is_err(), "accepted elapsed_ms {ms}");
        }
        // A file cut anywhere before its kernel array closes is refused,
        // including right after a complete kernel object.
        let full = include_str!("../../../BENCH_perf_quick.json");
        let close = full.rfind(']').unwrap();
        for cut in (0..close).filter(|&c| full.is_char_boundary(c)) {
            assert!(parse_baseline(&full[..cut]).is_err(), "accepted a cut at byte {cut}");
        }
    }

    #[test]
    fn committed_baselines_list_every_kernel() {
        let perf = parse_baseline(include_str!("../../../BENCH_perf_quick.json")).unwrap();
        let scale = parse_baseline(include_str!("../../../BENCH_scale_quick.json")).unwrap();
        assert_eq!((perf.len(), scale.len()), (19, 18));
    }

    #[test]
    fn walk_cache_hit_rate_reproduces_the_committed_baseline() {
        // `lorm_range_probe_batched`'s hit rate is a pure function of the
        // seed and the cache geometry, so the quick run at the default
        // seed reproduces the committed BENCH_perf_quick.json figure
        // exactly. Drift means nondeterminism leaked into the walk cache,
        // or its admission policy changed.
        let cfg = ReproConfig { quick: true, ..ReproConfig::default() };
        let probe = LormProbe::new(&cfg).unwrap();
        assert_eq!(probe.warm_hit_rate(&mut RouteCache::new()), Some(0.955));
    }

    #[test]
    fn diff_flags_only_kernels_past_threshold() {
        let kernels = sample_kernels();
        // fig4_quick regresses 2x; chord_route_stats improves; the bed
        // kernel sits at 1.54x — past the query gate but inside the
        // looser build gate; the retired kernel is absent from the
        // baseline and must be skipped.
        let base = vec![
            ("chord_route_stats".to_string(), 5.0),
            ("build_bed_lorm".to_string(), 26.0),
            ("fig4_quick".to_string(), 75.0),
            ("retired_kernel".to_string(), 1.0),
        ];
        let deltas = diff_baseline(&kernels, &base).expect("three kernels in common");
        assert_eq!(deltas.len(), 3, "only kernels present in both are compared");
        let fig4 = deltas.iter().find(|d| d.name == "fig4_quick").unwrap();
        assert!(fig4.regressed, "2x slowdown trips the {REGRESSION_THRESHOLD}x gate");
        let bed = deltas.iter().find(|d| d.name == "build_bed_lorm").unwrap();
        assert!(bed.ratio > REGRESSION_THRESHOLD && bed.ratio < BUILD_REGRESSION_THRESHOLD);
        assert!(!bed.regressed, "build kernels gate at {BUILD_REGRESSION_THRESHOLD}x, not 1.25x");
        let route = deltas.iter().find(|d| d.name == "chord_route_stats").unwrap();
        assert!(!route.regressed);
        assert!(route.ratio < 1.0);
        let t = delta_table(std::path::Path::new("BENCH.json"), &deltas).to_string();
        assert!(t.starts_with("## Baseline comparison vs BENCH.json\n"), "{t}");
        assert!(t.contains("| 2.00x | REGRESSED |"), "{t}");
        assert!(t.contains("|        ok |"), "{t}");
    }

    #[test]
    fn a_baseline_of_the_wrong_kind_shares_no_kernel() {
        let perf_base = parse_baseline(include_str!("../../../BENCH_perf_quick.json")).unwrap();
        let scale_base = parse_baseline(include_str!("../../../BENCH_scale_quick.json")).unwrap();
        let perf_run = sample_kernels();
        let scale_run = vec![PerfKernel { name: "chord_build_n1k".into(), ..perf_run[1].clone() }];
        assert!(diff_baseline(&perf_run, &scale_base).is_none(), "perf run, scale baseline");
        assert!(diff_baseline(&scale_run, &perf_base).is_none(), "scale run, perf baseline");
        // Each against its own kind compares something.
        assert_eq!(diff_baseline(&perf_run, &perf_base).map(|d| d.len()), Some(3));
        assert_eq!(diff_baseline(&scale_run, &scale_base).map(|d| d.len()), Some(1));
    }
}
