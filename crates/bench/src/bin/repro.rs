//! Regenerate the paper's tables and figures. See `bench` crate docs.
#![allow(clippy::print_stdout)] // terminal output is this binary's UI

use bench::perf::{self, PerfKernel};
use bench::{chaos, durability, scale};
use bench::{parse_args, render_json, run_artifact_report, ArtifactRun, Mode, ReproConfig};
use sim::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and the bytes moving in each direction)
/// so `repro perf` can report allocations-per-lookup and `repro scale`
/// can report live bytes-per-node. Counting is a handful of relaxed
/// atomic increments; the `System` allocator does the real work.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Monotonic total bytes ever allocated (never decremented; live bytes
/// are `ALLOC_BYTES - FREED_BYTES`).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Monotonic total bytes ever freed.
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation and deallocation verbatim to `System`;
// the only addition is relaxed counter bumps, which cannot violate any
// allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: &mut dyn FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn heap_bytes() -> (u64, u64) {
    (ALLOC_BYTES.load(Ordering::Relaxed), FREED_BYTES.load(Ordering::Relaxed))
}

/// Print `msg` and exit 1: the verdict of every failed check.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Write the run's JSON export to the `--json` path, if one was given;
/// exit 1 when the file cannot be written.
fn write_json(cfg: &ReproConfig, label: &str, render: impl FnOnce() -> String) {
    let Some(path) = &cfg.json else { return };
    if let Err(e) = std::fs::write(path, render()) {
        fail(format!("failed to write {}: {e}", path.display()));
    }
    println!("({label} written to {})", path.display());
}

/// The `--baseline` file, read and parsed before any kernel runs so a
/// bad path costs nothing: exit 1 when it is unreadable or lists no
/// kernel. The text rides along for the scale sweep's byte gate.
type Baseline<'a> = Option<(&'a Path, String, Vec<(String, f64)>)>;

fn load_baseline(cfg: &ReproConfig) -> Baseline<'_> {
    let path = cfg.baseline.as_deref()?;
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("failed to read baseline {}: {e}", path.display())));
    match perf::parse_baseline(&text) {
        Ok(base) => Some((path, text, base)),
        Err(e) => fail(format!("failed to parse baseline {}: {e}", path.display())),
    }
}

/// The one tail every standalone mode ends in: print the report, write
/// the JSON export, exit 1 on any violation, then diff `kernels` against
/// the baseline, if one was loaded — print the per-kernel delta table
/// and exit 1 when the baseline shares no kernel with the run or a
/// kernel slowed past its gate.
fn conclude(
    cfg: &ReproConfig,
    what: &str,
    report: Report,
    json: impl FnOnce() -> String,
    violations: Vec<String>,
    (baseline, kernels): (Baseline<'_>, &[PerfKernel]),
) {
    println!("{report}");
    write_json(cfg, &format!("{what} metrics"), json);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("  {v}");
        }
        fail(format!("{what}: {} violation(s), listed above", violations.len()));
    }
    let Some((path, _, base)) = baseline else { return };
    let Some(deltas) = perf::diff_baseline(kernels, &base) else {
        fail(format!("baseline {} shares no kernel with this {what} run", path.display()));
    };
    println!("{}", perf::delta_table(path, &deltas));
    if deltas.iter().any(|d| d.regressed) {
        fail(format!(
            "{what} regression: at least one kernel slowed past its gate \
             ({:.0}% query / {:.0}% build) vs {}",
            (perf::REGRESSION_THRESHOLD - 1.0) * 100.0,
            (perf::BUILD_REGRESSION_THRESHOLD - 1.0) * 100.0,
            path.display()
        ));
    }
}

fn main() {
    let (cfg, artifacts) = match parse_args(std::env::args().skip(1)) {
        Ok(plan) => plan,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let size = if cfg.quick { "quick" } else { "full (paper §V)" };
    let banner =
        |what: &str, mode: &str| println!("# LORM {what} — {mode} mode (seed {})\n", cfg.seed);
    // One cache for the whole invocation: artifacts sharing a bed
    // configuration (fig4 + fig5 + t410 at the same scale, say) build it
    // once and reuse it.
    let cache = sim::BedCache::new();
    match cfg.mode {
        Mode::Perf => {
            let baseline = load_baseline(&cfg);
            banner("perf baseline", size);
            let kernels = perf::run_perf(&cfg, Some(count_allocs));
            let json = || perf::render_perf_json(&cfg, &kernels);
            conclude(&cfg, "perf", perf::perf_report(&kernels), json, vec![], (baseline, &kernels));
        }
        Mode::Scale => {
            let baseline = load_baseline(&cfg);
            let base_bytes = baseline.as_ref().map(|(path, text, _)| {
                scale::parse_scale_bytes(text).unwrap_or_else(|e| {
                    fail(format!("failed to parse baseline {}: {e}", path.display()))
                })
            });
            banner("scale sweep", if cfg.quick { "quick (1k-50k)" } else { "full (1k-1M)" });
            let run = scale::run_scale(&cfg, Some(heap_bytes));
            // The scale export shares the perf-v2 kernel array, so a
            // committed BENCH_scale_quick.json diffs with the same gate;
            // its heap bytes per cell gate exactly.
            let mut violations = run.violations();
            if let Some(base) = &base_bytes {
                violations.extend(scale::bytes_regressions(&run.points, base));
            }
            let json = || scale::render_scale_json(&cfg, &run);
            conclude(&cfg, "scale", run.report(), json, violations, (baseline, &run.kernels));
        }
        Mode::Durability => {
            banner("durability sweep", size);
            let d = durability::run_durability(&cfg, &cache);
            let json = || durability::render_durability_json(&cfg, &d);
            conclude(&cfg, "durability", d.report(), json, d.violations(), (None, &[]));
        }
        Mode::Chaos => {
            banner("chaos sweep", size);
            let c = chaos::run_chaos(&cfg, &cache);
            let json = || chaos::render_chaos_json(&cfg, &c);
            conclude(&cfg, "chaos", c.report(), json, c.violations(), (None, &[]));
        }
        Mode::Figures => {
            banner("reproduction", size);
            let mut runs: Vec<ArtifactRun> = Vec::with_capacity(artifacts.len());
            for a in artifacts {
                let started = std::time::Instant::now();
                let report = run_artifact_report(a, &cfg, &cache);
                let elapsed = started.elapsed();
                println!("{report}");
                println!("(elapsed: {elapsed:.1?})\n");
                runs.push(ArtifactRun {
                    artifact: a,
                    report,
                    elapsed_ms: elapsed.as_secs_f64() * 1e3,
                });
            }
            write_json(&cfg, "metrics", || render_json(&cfg, &runs));
        }
    }
}
