//! Structured experiment reports: tables + per-system summaries + notes.
//!
//! Every experiment builds a [`Report`] instead of formatting text
//! directly. The `Display` impl renders exactly the markdown the repro
//! binary always printed (tables separated by blank lines, then note
//! lines), and [`Report::to_json`] serializes the same content — plus the
//! per-system [`Summary`] statistics that the text tables round away —
//! for the machine-readable `--json` export.
//!
//! The JSON is hand-rolled (the build environment is offline, so no serde)
//! against the stable `lorm-repro/bench-v1` schema documented in
//! docs/SCHEMAS.md. [`json_array`], [`json_str`], [`json_num`] and
//! [`summary_json`] are the primitives every `repro` export is written
//! with.

use crate::table::Table;
use dht_core::Summary;
use std::fmt;

/// A structured experiment report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    tables: Vec<Table>,
    summaries: Vec<(String, Summary)>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rendered table.
    pub fn table(&mut self, t: Table) -> &mut Self {
        self.tables.push(t);
        self
    }

    /// Attach a labelled metric summary (full precision, with failure
    /// counts — the JSON export's per-system statistics).
    pub fn summary(&mut self, label: impl Into<String>, s: Summary) -> &mut Self {
        self.summaries.push((label.into(), s));
        self
    }

    /// Append a free-form note line rendered after the tables.
    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    /// Absorb another report's tables, summaries, and notes.
    pub fn append(&mut self, other: Report) -> &mut Self {
        self.tables.extend(other.tables);
        self.summaries.extend(other.summaries);
        self.notes.extend(other.notes);
        self
    }

    /// The tables, in presentation order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The labelled summaries.
    pub fn summaries(&self) -> &[(String, Summary)] {
        &self.summaries
    }

    /// The note lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Serialize as one JSON object:
    /// `{"tables": [...], "summaries": [...], "notes": [...]}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tables\":{},\"summaries\":{},\"notes\":{}}}",
            json_array(self.tables.iter().map(Table::to_json)),
            json_array(self.summaries.iter().map(|(label, s)| summary_json(label, s))),
            json_array(self.notes.iter().map(|n| json_str(n))),
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            t.fmt(f)?;
        }
        for n in &self.notes {
            writeln!(f, "{n}")?;
        }
        Ok(())
    }
}

/// Serialize one labelled [`Summary`] as a JSON object (shared by the
/// bench crate's `chaos-v1` and `durability-v1` exports, so every schema
/// renders summaries identically).
pub fn summary_json(label: &str, s: &Summary) -> String {
    format!(
        "{{\"label\":{},\"count\":{},\"failures\":{},\"partial\":{},\"retries\":{},\"dropped\":{},\"mean\":{},\"std\":{},\"min\":{},\"max\":{},\"total\":{}}}",
        json_str(label),
        s.count(),
        s.failures(),
        s.partial(),
        s.retries(),
        s.dropped_msgs(),
        json_num(s.mean()),
        json_num(s.std_dev()),
        json_num(s.min()),
        json_num(s.max()),
        json_num(s.total()),
    )
}

/// JSON array of already-serialized values: `[a,b,...]`. The one list
/// writer of every export, here and in the bench crate's sweeps.
pub fn json_array<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

/// JSON string literal (quoted, escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal; non-finite floats become `null` (JSON has no
/// NaN/Infinity).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_layout() {
        let mut r = Report::new();
        let mut a = Table::new("A", &["x"]);
        a.row(vec!["1".into()]);
        let mut b = Table::new("B", &["y"]);
        b.row(vec!["2".into()]);
        r.table(a).table(b).note("(a note)");
        let s = r.to_string();
        // tables separated by exactly one blank line, note on its own line
        assert!(s.contains("|---|\n| 1 |\n\n## B"), "got:\n{s}");
        assert!(s.ends_with("| 2 |\n(a note)\n"), "got:\n{s}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::new();
        let mut t = Table::new("q\"uote", &["a", "b"]);
        t.row(vec!["x\ny".into(), "2".into()]);
        let mut s = Summary::new();
        s.record(3.0);
        s.record_failure();
        r.table(t).summary("LORM", s).note("line\t1");
        let j = r.to_json();
        assert!(j.starts_with("{\"tables\":["));
        assert!(j.contains("\"title\":\"q\\\"uote\""), "{j}");
        assert!(j.contains("\"x\\ny\""));
        assert!(j.contains("\"label\":\"LORM\""));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"failures\":1"));
        assert!(j.contains("\"partial\":0"));
        assert!(j.contains("\"retries\":0"));
        assert!(j.contains("\"dropped\":0"));
        assert!(j.contains("\"mean\":3"));
        assert!(j.contains("\"notes\":[\"line\\t1\"]"));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let s = Summary::new(); // empty: min/max are NaN
        let j = summary_json("empty", &s);
        assert!(j.contains("\"min\":null"), "{j}");
        assert!(j.contains("\"max\":null"));
        assert!(j.contains("\"count\":0"));
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn append_concatenates() {
        let mut a = Report::new();
        a.table(Table::new("A", &["x"]));
        let mut b = Report::new();
        b.table(Table::new("B", &["y"])).note("n");
        a.append(b);
        assert_eq!(a.tables().len(), 2);
        assert_eq!(a.notes(), ["n"]);
    }
}
