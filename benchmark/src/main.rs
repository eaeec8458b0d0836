//! `lormbench run …` and `lormbench compare A.json B.json`.

use lormbench::heap::CountingAlloc;
use lormbench::json::Json;
use lormbench::workloads::{spec, WORKLOADS};
use lormbench::{compare, layers, report, run};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  lormbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--tiny]
                [--json PATH] [--trace-out PATH]
  lormbench compare A.json B.json [--bounds BENCHMARK.json]
workloads: point_lookup range_scan adaptive_join churn_mix scale_50k (default: all five)";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        seed: 7321,
        seconds: 9.0,
        trace: false,
        tiny: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            parsed.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                parsed.workloads = vec![value.clone()];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--json" => parsed.json = Some(value.clone()),
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run_command(args: &RunArgs) -> Result<(), String> {
    let mut entries = Vec::new();
    let mut spans = String::new();
    for name in &args.workloads {
        let spec =
            spec(name, args.seed, args.tiny).ok_or_else(|| format!("unknown workload {name}"))?;
        if args.trace {
            let traced = layers::per_layer(&spec)?;
            eprint!("{}", report::traced_table(&traced));
            println!("{}", report::result_line(traced.attempted, traced.failed, &traced.metrics));
            entries.push(report::traced_entry(&traced));
            if args.trace_out.is_some() {
                spans.push_str(&traced.tracer.to_json_lines(name));
            }
        } else {
            let e2e = run::end_to_end(&spec, args.seconds)?;
            eprint!("{}", report::end_to_end_table(&e2e));
            println!("{}", report::result_line(e2e.attempted(), e2e.failed(), &e2e.metrics));
            entries.push(report::end_to_end_entry(&e2e));
        }
    }
    if let Some(path) = &args.json {
        let text = report::result_file(args.seed, args.seconds, args.tiny, args.trace, &entries);
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, spans).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let (files, bounds) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--bounds" => ([a, b], path.as_str()),
        _ => return Err(USAGE.to_owned()),
    };
    let (table, bad) =
        compare::compare(&read_json(bounds)?, &read_json(files[0])?, &read_json(files[1])?)?;
    print!("{table}");
    Ok(bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|a| run_command(&a)).map(|()| false)
        }
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lormbench: {message}");
            ExitCode::from(2)
        }
    }
}
