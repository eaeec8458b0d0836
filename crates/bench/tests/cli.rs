//! The `repro` binary's error exits, driven as a subprocess: a malformed
//! invocation exits 2 with the usage line, a bad `--baseline` exits 1
//! before any kernel runs, and an unwritable `--json` path exits 1.
//!
//! Reached by tier-1 (`cargo test -q`): `crates/bench` is a default
//! workspace member.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// A scratch file under the test target directory holding `text`.
fn scratch_file(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_string_lossy().into_owned()
}

#[test]
fn malformed_invocations_exit_2_with_the_usage_line() {
    for line in [
        "fig9",
        "--json",
        "--quick fig4 --baseline",
        "--seed=x",
        "--shards=-1",
        "--plan=greedy",
        "perf chaos",
        "--plan=adaptive perf",
        "chaos fig4",
    ] {
        let out = repro(&line.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran something");
    }
}

#[test]
fn a_bad_baseline_exits_1_before_any_kernel_runs() {
    let perf = include_str!("../../../BENCH_perf_quick.json");
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-baseline.json");
    let cases = [
        ("missing", missing.to_string_lossy().into_owned(), "failed to read baseline"),
        (
            "truncated",
            scratch_file("truncated-baseline.json", &perf[..perf.len() / 2]),
            "truncated \"kernels\" array",
        ),
        ("kernel-less", scratch_file("empty-baseline.json", "{\"kernels\":[]}"), "no kernels"),
        ("not a perf export", scratch_file("no-kernels.json", "{}"), "no \"kernels\" array"),
        (
            "infinite",
            scratch_file(
                "inf-baseline.json",
                "{\"kernels\":[{\"name\":\"x\",\"elapsed_ms\":inf}]}",
            ),
            "not a finite duration",
        ),
    ];
    // A perf export has kernels but no heap rows for the scale byte gate.
    let no_rows = scratch_file("perf-as-scale-baseline.json", perf);
    let scale_only = [("a perf export", no_rows, "no \"scale\" array")];
    for mode in ["perf", "scale"] {
        let extra = if mode == "scale" { &scale_only[..] } else { &[] };
        for (what, path, reason) in cases.iter().chain(extra) {
            let out = repro(&["--quick", mode, "--baseline", path]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{mode}, {what}: {stderr}");
            assert!(stderr.contains(reason), "{mode}, {what}: {stderr}");
            assert!(out.stdout.is_empty(), "{mode}, {what}: ran before failing");
        }
    }
}

#[test]
fn an_unwritable_json_path_exits_1() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    let path = dir.join("out.json");
    let out = repro(&["--quick", "theorems", "--json", &path.to_string_lossy()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write"), "{stderr}");
}
