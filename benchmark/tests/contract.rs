//! The benchmark's own checks, on the `--tiny` profile (128 nodes): the
//! simulation repeats exactly, every metric `BENCHMARK.json` names is
//! emitted with its unit, and the oracle catches a wrong answer.

use lormbench::heap::CountingAlloc;
use lormbench::json::Json;
use lormbench::metrics::{self, Kind};
use lormbench::oracle::Oracle;
use lormbench::run::{self, Inputs};
use lormbench::workloads::{spec, WORKLOADS};
use lormbench::{api, layers, report};

// Installed here as in `main.rs`, so `heap_peak_mb` and the
// `bytes_per_node` probes measure something.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn listed(manifest: &Json, section: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_lists_the_workloads_and_metrics_the_code_emits() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end: Vec<(String, String)> =
        metrics::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
    assert_eq!(listed(&manifest, "end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> =
        metrics::per_layer().into_iter().map(|(n, u, _)| (n, u.to_owned())).collect();
    assert_eq!(per_layer.len(), 86);
    assert_eq!(listed(&manifest, "per_layer"), per_layer);
}

/// `(name, unit)` of every metric in a result line, in order, after
/// checking the line has exactly the four keys of the contract.
fn emitted(line: &str) -> Vec<(String, String)> {
    let parsed = Json::parse(line).expect("result line is JSON");
    let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    assert!(parsed.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    // Key order and duplicates are invisible after parsing: scan the text.
    let mut out = Vec::new();
    let metrics = &line[line.find("\"metrics\":{").unwrap() + 11..];
    for part in metrics.split("},") {
        let name = part.split('"').nth(1).unwrap();
        let unit = part.split("\"unit\":\"").nth(1).unwrap().split('"').next().unwrap();
        let value = parsed.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
        assert!(
            value.and_then(Json::as_f64).is_some_and(f64::is_finite),
            "{name} has no finite value"
        );
        out.push((name.to_owned(), unit.to_owned()));
    }
    out
}

#[test]
fn every_workload_emits_every_metric_once_and_repeats_exactly() {
    let manifest = manifest();
    let (end_to_end, per_layer) = (listed(&manifest, "end_to_end"), listed(&manifest, "per_layer"));
    for name in WORKLOADS {
        let tiny = spec(name, 7321, true).unwrap();
        let a = run::end_to_end(&tiny, 0.0).unwrap();
        assert_eq!(
            emitted(&report::result_line(a.attempted(), a.failed(), &a.metrics)),
            end_to_end
        );
        assert_eq!(a.failed(), 0, "{name}: no operation may fail");
        for m in &a.metrics {
            assert!(m.value > 0.0, "{name}: {} must never be 0", m.name);
        }
        let incomplete: u64 = a.cells.iter().map(|c| c.incomplete).sum();
        assert!(tiny.churn || incomplete == 0, "{name}: static answers are complete");

        // Same seed: same simulated work, to the last count.
        let b = run::end_to_end(&tiny, 0.0).unwrap();
        assert_eq!(a.sim_digest, b.sim_digest, "{name}");
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.counts, y.counts, "{name}");
            assert_eq!(x.incomplete, y.incomplete, "{name}");
        }
        // Another seed: another bed and batch.
        let other = run::end_to_end(&spec(name, 99, true).unwrap(), 0.0).unwrap();
        assert_ne!(a.sim_digest, other.sim_digest, "{name}");

        let t = layers::per_layer(&tiny).unwrap();
        assert_eq!(emitted(&report::result_line(t.attempted, t.failed, &t.metrics)), per_layer);
        assert_eq!(t.sim_digest, a.sim_digest, "{name}: traced and untraced runs do the same work");
        let t2 = layers::per_layer(&tiny).unwrap();
        for ((x, y), (_, _, kind)) in t.metrics.iter().zip(&t2.metrics).zip(metrics::per_layer()) {
            if kind == Kind::Count {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{name}: {} is a count", x.name);
            }
        }
        assert!(!t.tracer.spans().is_empty());
    }
}

#[test]
fn different_seeds_generate_different_inputs() {
    for name in WORKLOADS {
        let (a, b) = (spec(name, 1, true).unwrap(), spec(name, 2, true).unwrap());
        let (wa, wb) = (api::generate_workload(&a.cfg), api::generate_workload(&b.cfg));
        let describe = |inputs: &Inputs| match inputs {
            Inputs::Static(batch) => format!("{batch:?}"),
            Inputs::Churn(script) => format!("{script:?}"),
        };
        assert_ne!(describe(&Inputs::generate(&a, &wa)), describe(&Inputs::generate(&b, &wb)));
        assert_eq!(describe(&Inputs::generate(&a, &wa)), describe(&Inputs::generate(&a, &wa)));
    }
}

#[test]
fn oracle_rejects_a_corrupted_answer() {
    let tiny = spec("range_scan", 7321, true).unwrap();
    let (bed, _) = run::set_up(&tiny);
    let Inputs::Static(batch) = Inputs::generate(&tiny, &bed.workload) else { unreachable!() };
    let oracle = Oracle::new(tiny.cfg.attrs, &bed.workload.reports);
    let mut corrupted = 0;
    for (phys, q) in &batch {
        let answer =
            api::query_planned(bed.systems[0].as_ref(), *phys, q, tiny.plan).unwrap().owners;
        assert!(oracle.check(q, usize::MAX, &answer));
        let mut extra = answer.clone();
        extra.push(tiny.cfg.nodes + 1);
        assert!(!oracle.check(q, usize::MAX, &extra), "an owner too many must be caught");
        if let Some((_, rest)) = answer.split_first() {
            assert!(!oracle.check(q, usize::MAX, rest), "a missing owner must be caught");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the batch has non-empty answers to corrupt");
}
