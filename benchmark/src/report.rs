//! Output: the one-line result the driver reads, the human-readable
//! tables on standard error, and the result file `compare` reads.

use crate::api;
use crate::json::{number, quote};
use crate::layers::Traced;
use crate::metrics::{Kind, Value};
use crate::run::EndToEnd;
use crate::stats::median;
use std::fmt::Write as _;

fn metrics_object(values: &[Value], with_samples: bool) -> String {
    let members: Vec<String> = values
        .iter()
        .map(|m| {
            let mut s = format!(
                "{}:{{\"value\":{},\"unit\":{}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            );
            if with_samples {
                if !m.samples.is_empty() {
                    let samples: Vec<String> = m.samples.iter().map(|&x| number(x)).collect();
                    let _ = write!(s, ",\"samples\":[{}]", samples.join(","));
                }
                if m.noise != 0.0 {
                    let _ = write!(s, ",\"noise\":{}", number(m.noise));
                }
                if let Some(kind) = m.kind {
                    let kind = if kind == Kind::Count { "count" } else { "time" };
                    let _ = write!(s, ",\"kind\":\"{kind}\"");
                }
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, values: &[Value]) -> String {
    format!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_object(values, false)
    )
}

/// One workload of the result file, untraced.
pub fn end_to_end_entry(e: &EndToEnd) -> String {
    let cells: Vec<String> = e
        .cells
        .iter()
        .map(|c| {
            let reps: Vec<String> = c.reps.iter().map(|&r| number(r)).collect();
            format!(
                "{{\"system\":{},\"ops\":{},\"reps_s\":[{}],\"hops\":{},\"lookups\":{},\"visited\":{},\"pieces\":{},\"owners\":{},\"incomplete\":{}}}",
                quote(api::system_name(c.system)),
                c.ops,
                reps.join(","),
                c.counts.hops,
                c.counts.lookups,
                c.counts.visited,
                c.counts.pieces,
                c.counts.owners,
                c.incomplete
            )
        })
        .collect();
    format!(
        "{{\"name\":{},\"sim_digest\":{},\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{},\"cells\":[{}]}}",
        quote(e.workload),
        quote(&e.sim_digest),
        e.attempted(),
        e.failed(),
        metrics_object(&e.metrics, true),
        cells.join(",")
    )
}

/// One workload of the result file, traced.
pub fn traced_entry(t: &Traced) -> String {
    let shares: Vec<String> = t
        .shares
        .iter()
        .map(|(system, parts)| {
            let parts: Vec<String> = parts
                .iter()
                .map(|(name, share)| format!("{}:{}", quote(name), number(*share)))
                .collect();
            format!("{}:{{{}}}", quote(api::system_name(*system)), parts.join(","))
        })
        .collect();
    format!(
        "{{\"name\":{},\"sim_digest\":{},\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{},\"attributed_shares\":{{{}}}}}",
        quote(t.workload),
        quote(&t.sim_digest),
        t.attempted,
        t.failed,
        metrics_object(&t.metrics, true),
        shares.join(",")
    )
}

/// The result file: run parameters, one entry per workload, and the
/// claim this benchmark-defining change makes (none).
pub fn result_file(seed: u64, seconds: f64, tiny: bool, trace: bool, entries: &[String]) -> String {
    format!(
        "{{\"schema\":\"lormbench-v1\",\"seed\":{seed},\"seconds\":{},\"tiny\":{tiny},\"trace\":{},\n\"workloads\":[\n{}\n],\n\"claim\":null}}\n",
        number(seconds),
        u8::from(trace),
        entries.join(",\n")
    )
}

/// The untraced run of one workload, for a person.
pub fn end_to_end_table(e: &EndToEnd) -> String {
    let mut out = format!("== {} (untraced)  sim_digest {}\n", e.workload, e.sim_digest);
    for m in &e.metrics {
        let _ = write!(out, "  {:<20} {:>16.6} {:<6}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let _ = write!(out, " min {min:.6} max {max:.6} n={}", m.samples.len());
        }
        out.push('\n');
    }
    for c in &e.cells {
        let min = c.reps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = c.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(
            out,
            "  cell {:<8} ops {:>7}  rep best {min:.4} s median {:.4} max {max:.4} n={}  failed {} incomplete {}",
            api::system_name(c.system),
            c.ops,
            median(&c.reps),
            c.reps.len(),
            c.failed,
            c.incomplete
        );
    }
    out
}

/// The traced run of one workload, for a person.
pub fn traced_table(t: &Traced) -> String {
    let mut out = format!(
        "== {} (traced)  sim_digest {}  spans {}\n",
        t.workload,
        t.sim_digest,
        t.tracer.spans().len()
    );
    for m in &t.metrics {
        let _ = writeln!(out, "  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out.push_str("  attributed share of each cell's untraced time:\n");
    for (system, parts) in &t.shares {
        let _ = write!(out, "    {:<8}", api::system_name(*system));
        for (name, share) in parts {
            let _ = write!(out, " {name} {share:.3}");
        }
        out.push('\n');
    }
    out
}
