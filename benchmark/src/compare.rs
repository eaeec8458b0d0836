//! `lormbench compare A.json B.json`: B against A under the bounds of
//! `BENCHMARK.json`. One row per (workload, end-to-end metric); simulated
//! counts and `sim_digest` must be identical.

use crate::json::Json;
use std::fmt::Write as _;

/// How B's metric reads against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the noise and more than a third of the bound
    /// (the run-to-run spread the benchmark is tuned to stay under).
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The spread is wider than the bound and the samples overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify one metric. `higher_is_better` and `bound` come from
/// `BENCHMARK.json`; each side is a reported value with its samples;
/// `noise` is the larger of the two sides' own noise estimates.
pub fn classify(
    higher_is_better: bool,
    bound: f64,
    noise: f64,
    (a, a_samples): (f64, &[f64]),
    (b, b_samples): (f64, &[f64]),
) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b - a) / a.abs();
    if noise > bound {
        // Overlapping samples cannot resolve a difference this small.
        let every = |pred: fn(f64, f64) -> bool| {
            !a_samples.is_empty()
                && !b_samples.is_empty()
                && a_samples.iter().all(|&x| b_samples.iter().all(|&y| pred(sign * x, sign * y)))
        };
        return if every(|x, y| y < x) {
            Verdict::Better
        } else if every(|x, y| y > x) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise.max(bound / 3.0) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn samples_of(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_array)
        .map(|s| s.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Compare result file `b` against `a`. Returns the table and whether
/// anything is worse or any simulated count differs.
pub fn compare(bounds: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let end_to_end = bounds
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("first file has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let mut out = String::new();
    let mut bad = false;
    let mut compared = 0;
    for name in names {
        let (wa, Some(wb)) = (workload(a, name).expect("listed above"), workload(b, name)) else {
            let _ = writeln!(out, "{name:<14} only in the first file");
            continue;
        };
        compared += 1;
        let digests = (wa.get("sim_digest"), wb.get("sim_digest"));
        if digests.0 != digests.1 {
            bad = true;
            let _ =
                writeln!(out, "{name:<14} sim_digest DIFFERS: {:?} vs {:?}", digests.0, digests.1);
        }
        let (ma, mb) = (wa.get("metrics"), wb.get("metrics"));
        for def in end_to_end {
            let metric =
                def.get("name").and_then(Json::as_str).ok_or("unnamed end_to_end metric")?;
            let (Some(x), Some(y)) =
                (ma.and_then(|m| m.get(metric)), mb.and_then(|m| m.get(metric)))
            else {
                continue;
            };
            let bound = def.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            let higher = def.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (
                x.get("value").and_then(Json::as_f64).ok_or("metric without value")?,
                y.get("value").and_then(Json::as_f64).ok_or("metric without value")?,
            );
            let (sa, sb) = (samples_of(x), samples_of(y));
            let noise_of = |m: &Json| m.get("noise").and_then(Json::as_f64).unwrap_or(0.0);
            let (na, nb) = (noise_of(x), noise_of(y));
            let verdict = classify(higher, bound, na.max(nb), (va, &sa), (vb, &sb));
            bad |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<14} {metric:<20} {va:>16.6} -> {vb:>16.6} {:>+8.2}%  bound {:.1}%  noise {:.1}%/{:.1}%  {}",
                (vb - va) / va.abs() * 100.0,
                bound * 100.0,
                na * 100.0,
                nb * 100.0,
                verdict.label()
            );
        }
        let counts = ma
            .and_then(Json::as_object)
            .into_iter()
            .flatten()
            .filter(|(_, v)| v.get("kind").and_then(Json::as_str) == Some("count"));
        for (metric, x) in counts {
            let y = mb.and_then(|m| m.get(metric));
            if y.map(|y| y.get("value")) != Some(x.get("value")) {
                bad = true;
                let _ = writeln!(
                    out,
                    "{name:<14} {metric:<40} count DIFFERS: {:?} vs {:?}",
                    x.get("value"),
                    y.and_then(|y| y.get("value"))
                );
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload".to_owned());
    }
    let _ = writeln!(
        out,
        "{}",
        if bad {
            "FAIL: worse metrics or differing counts"
        } else {
            "ok: nothing worse, counts and digests identical"
        }
    );
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_applies_bound_direction_and_spread() {
        let tight = [100.0, 100.5, 99.5, 100.2];
        let lower = |a: f64, b: f64| {
            classify(false, 0.08, 0.01, (a, &tight), (b, &tight.map(|x| x * b / a)))
        };
        assert_eq!(lower(100.0, 105.0), Verdict::WithinBound);
        assert_eq!(lower(100.0, 109.0), Verdict::Worse);
        assert_eq!(lower(100.0, 90.0), Verdict::Better);
        assert_eq!(lower(100.0, 98.0), Verdict::WithinBound);
        let slower = tight.map(|x| x * 0.9);
        assert_eq!(classify(true, 0.08, 0.01, (100.0, &tight), (90.0, &slower)), Verdict::Worse);
        let noisy = [80.0, 100.0, 120.0, 90.0];
        assert_eq!(
            classify(false, 0.08, 0.2, (100.0, &noisy), (115.0, &noisy)),
            Verdict::Unresolved
        );
        let halved = noisy.map(|x| x / 2.0 - 1.0);
        assert_eq!(classify(false, 0.08, 0.2, (100.0, &noisy), (50.0, &halved)), Verdict::Better);
    }
}
