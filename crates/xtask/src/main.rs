//! `cargo xtask` — workspace automation. Currently one subcommand:
//! `lint`, the determinism & soundness analyzer (see `docs/LINTS.md`).
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{lint_workspace, lints, render_json_v2};

const USAGE: &str = "\
usage: cargo xtask lint [options]

options:
  --json <path>    also write the lorm-repro/lint-v2 JSON report, with
                   reachability traces
  --root <dir>     workspace root to scan (default: auto-detected)
  --list           print the lint catalogue and exit
";

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask, so the root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "lint" {
        eprintln!("unknown subcommand `{cmd}`\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut json_path: Option<PathBuf> = None;
    let mut root = workspace_root();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (name, desc) in lints::LINTS {
                    println!("{name:20} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, render_json_v2(&report)) {
            eprintln!("xtask lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for d in &report.diagnostics {
        println!("{}:{}: [{}] {}", d.file, d.line, d.lint, d.message);
        if let Some(trace) = &d.trace {
            println!("    reachable via {}", trace.join(" -> "));
        }
    }
    println!(
        "xtask lint: {} file(s) scanned, {} finding(s), {} suppression(s) used",
        report.files_scanned,
        report.diagnostics.len(),
        report.suppressions_used
    );
    println!(
        "xtask lint: call graph: {} fn(s), {} edge(s), {} reachable from {} entry point(s)",
        report.functions_indexed,
        report.call_edges,
        report.reachable_functions,
        report.entry_points.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
