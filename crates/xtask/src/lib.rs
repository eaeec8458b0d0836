//! Workspace determinism & soundness analyzer.
//!
//! `cargo xtask lint` walks every non-vendored `.rs` file in the
//! workspace through a string/comment-aware lexer, an item-tree parser,
//! and a workspace call graph, then runs a registry of named lints that
//! enforce the simulator's reproducibility contract. Reachability-scoped
//! lints fire only in functions reachable from the sim entry points
//! ([`graph::ENTRY_POINTS`]); each such finding carries a call-path
//! trace. See `docs/LINTS.md` for the catalogue and the suppression
//! syntax, and `docs/SCHEMAS.md` for the JSON schema catalogue the
//! `schema-drift` lint checks against.

#![forbid(unsafe_code)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod lints;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graph::CallGraph;
use lexer::Lexed;

pub use lints::{Diagnostic, FileClass, FileCtx};

/// The aggregated outcome of linting the workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, lint).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `lint:allow` directives that suppressed a finding.
    pub suppressions_used: usize,
    /// The sim entry points the call graph was rooted at (`crate::fn`).
    pub entry_points: Vec<String>,
    /// Functions indexed in the call graph.
    pub functions_indexed: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Functions reachable from the entry points.
    pub reachable_functions: usize,
}

impl LintReport {
    /// True when no lint fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directories never descended into, by name.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Workspace-relative path prefixes excluded from analysis: vendored
/// stand-in crates and the lint engine's own violating fixtures.
const SKIP_PREFIXES: &[&str] = &["crates/vendored/", "crates/xtask/tests/fixtures/"];

/// Classify a workspace-relative (`/`-separated) path into its crate
/// directory and file class. Returns `None` for files outside any
/// recognised source layout.
pub fn classify(rel: &str) -> Option<(String, FileClass)> {
    let (crate_dir, tail) = if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, tail) = rest.split_once('/')?;
        (dir.to_string(), tail)
    } else {
        // The root facade package (`lorm-repro`).
        ("lorm-repro".to_string(), rel)
    };
    let class = if tail == "src/main.rs" || tail.starts_with("src/bin/") {
        FileClass::Bin
    } else if tail == "build.rs" || tail.starts_with("src/") {
        FileClass::Lib
    } else if tail.starts_with("tests/") {
        FileClass::TestDir
    } else if tail.starts_with("examples/") {
        FileClass::Example
    } else if tail.starts_with("benches/") {
        FileClass::Bench
    } else {
        return None;
    };
    Some((crate_dir, class))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One fully-analyzed source file (pass 1 of the workspace lint).
struct SourceFile {
    ctx: FileCtx,
    lexed: Lexed,
    items: items::ItemTree,
}

/// Lint every eligible `.rs` file under `root` (the workspace root).
///
/// Two passes: first every file is lexed and item-parsed and the
/// workspace call graph is built; then per-file lints run, the
/// reachability-scoped ones are filtered through the graph (findings in
/// functions unreachable from the sim entry points are dropped, and the
/// survivors gain an entry→site trace), the graph-level `schema-drift`
/// pass runs against `docs/SCHEMAS.md`, and suppressions are resolved
/// last — so a suppression whose finding was dropped as unreachable
/// reports `unused-suppression` and must be removed.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    walk(root, &mut files)?;

    let mut srcs: Vec<SourceFile> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let Some((crate_dir, class)) = classify(&rel) else { continue };
        let src = fs::read_to_string(&path)?;
        let lexed = lexer::lex(&src);
        let items = items::parse_items(&lexed.toks);
        srcs.push(SourceFile { ctx: FileCtx { crate_dir, class, rel_path: rel }, lexed, items });
    }

    let triples: Vec<(&FileCtx, &[lexer::Tok], &items::ItemTree)> =
        srcs.iter().map(|s| (&s.ctx, &s.lexed.toks[..], &s.items)).collect();
    let graph = CallGraph::build(&triples);

    let mut report = LintReport {
        entry_points: graph.entries.iter().map(|&e| graph.nodes[e].display()).collect(),
        functions_indexed: graph.nodes.len(),
        call_edges: graph.edge_count,
        reachable_functions: graph.reachable_count(),
        ..LintReport::default()
    };

    // Graph-level pass: schema drift, grouped by the file each finding
    // anchors in so suppressions there can match; doc-anchored findings
    // (docs/SCHEMAS.md is not a scanned source file) pass through.
    let drift_files: Vec<(&FileCtx, &Lexed, &items::ItemTree)> =
        srcs.iter().map(|s| (&s.ctx, &s.lexed, &s.items)).collect();
    let doc = fs::read_to_string(root.join("docs/SCHEMAS.md")).ok();
    let mut drift_by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in lints::schema_drift(&drift_files, &graph, doc.as_deref()) {
        drift_by_file.entry(d.file.clone()).or_default().push(d);
    }

    for s in &srcs {
        let mut raw = lints::raw_lints(&s.ctx, &s.lexed, &s.items);
        raw.retain_mut(|d| {
            if !lints::REACH_SCOPED.contains(&d.lint.as_str()) {
                return true;
            }
            match graph.enclosing_fn(&d.file, d.line) {
                // Findings in unreachable functions are dropped; their
                // suppressions (if any) then report as unused.
                Some(id) if !graph.is_reachable(id) => false,
                Some(id) => {
                    d.trace = graph.trace(id);
                    true
                }
                // Top-level code has no enclosing fn: keep conservatively.
                None => true,
            }
        });
        if let Some(drift) = drift_by_file.remove(&s.ctx.rel_path) {
            raw.extend(drift);
        }
        let file_report = lints::resolve_suppressions(&s.ctx, &s.lexed, raw);
        report.files_scanned += 1;
        report.suppressions_used += file_report.suppressions_used;
        report.diagnostics.extend(file_report.diagnostics);
    }
    // Findings anchored outside scanned sources (docs/SCHEMAS.md).
    for (_, diags) in drift_by_file {
        report.diagnostics.extend(diags);
    }
    report.diagnostics.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Ok(report)
}

/// Render the report as `lorm-repro/lint-v2` JSON: the findings plus the
/// call graph's shape and a per-finding reachability `trace` (entry → … →
/// enclosing function; `null` for lexical findings).
pub fn render_json_v2(report: &LintReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"lorm-repro/lint-v2\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"suppressions_used\": {},\n", report.suppressions_used));
    s.push_str(&format!("  \"clean\": {},\n", report.clean()));
    s.push_str("  \"entry_points\": [");
    for (i, e) in report.entry_points.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(e));
    }
    s.push_str("],\n");
    s.push_str(&format!("  \"functions_indexed\": {},\n", report.functions_indexed));
    s.push_str(&format!("  \"call_edges\": {},\n", report.call_edges));
    s.push_str(&format!("  \"reachable_functions\": {},\n", report.reachable_functions));
    s.push_str("  \"findings\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"lint\": {}, ", json_str(&d.lint)));
        s.push_str(&format!("\"file\": {}, ", json_str(&d.file)));
        s.push_str(&format!("\"line\": {}, ", d.line));
        s.push_str(&format!("\"message\": {}, ", json_str(&d.message)));
        s.push_str("\"trace\": ");
        match &d.trace {
            None => s.push_str("null"),
            Some(steps) => {
                s.push('[');
                for (j, step) in steps.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&json_str(step));
                }
                s.push(']');
            }
        }
        s.push('}');
    }
    if !report.diagnostics.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_layouts() {
        assert_eq!(classify("crates/sim/src/report.rs"), Some(("sim".into(), FileClass::Lib)));
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            Some(("bench".into(), FileClass::Bin))
        );
        assert_eq!(
            classify("crates/chord/tests/routing.rs"),
            Some(("chord".into(), FileClass::TestDir))
        );
        assert_eq!(classify("src/lib.rs"), Some(("lorm-repro".into(), FileClass::Lib)));
        assert_eq!(classify("examples/demo.rs"), Some(("lorm-repro".into(), FileClass::Example)));
        assert_eq!(classify("crates/sim/Cargo.toml"), None);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_renders_clean() {
        let j = render_json_v2(&LintReport::default());
        assert!(j.contains("\"clean\": true"));
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"schema\": \"lorm-repro/lint-v2\""));
        assert!(j.contains("\"entry_points\": []"));
    }

    #[test]
    fn v2_renders_traces() {
        let r = LintReport {
            diagnostics: vec![Diagnostic {
                lint: "wall-clock".into(),
                file: "crates/sim/src/x.rs".into(),
                line: 7,
                message: "m".into(),
                trace: Some(vec!["sim::run_batch".into(), "sim::helper".into()]),
            }],
            ..LintReport::default()
        };
        let j = render_json_v2(&r);
        assert!(j.contains("\"trace\": [\"sim::run_batch\", \"sim::helper\"]"), "{j}");
    }
}
